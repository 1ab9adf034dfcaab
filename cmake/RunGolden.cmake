# Golden-output regression check: run a scenario binary and compare
# its stdout byte-for-byte against a committed golden file.
#
# Invoked by the golden_* CTest targets registered in the top-level
# CMakeLists:
#   cmake -DBIN=<binary> -DARGS="k=v k=v" -DGOLDEN=<file>
#         -DOUT=<scratch> [-DUPDATE=1] -P RunGolden.cmake
#
# -DUPDATE=1 (the golden_update_* targets, gated behind
# `ctest -C golden_update`) rewrites the golden file from the
# current output instead of diffing.
#
# -DSTDERR=<regex>[;<regex>...] additionally requires every regex to
# match a line of the run's stderr (in pair mode, the second run's):
# the proof that a recovery path (a crash, a resume, a SIGKILL)
# actually ran.
#
# Setup mode (-DSETUP_DIR=<dir>, no golden): empty <dir>, run the
# binary and ignore its stdout.  It is the first half of a CTest
# fixture whose later tests read what the run left in <dir>.
#
# Pair mode (no golden file involved):
#   cmake -DBIN=<binary> -DARGS="..." -DARGS2="..." [-DEXPECT_DIFFER=1]
#         [-DFILTER=<regex>] -DOUT=<scratch> -P RunGolden.cmake
# runs the binary twice and fails unless both stdouts are
# byte-identical — an equivalence invariant (e.g. threads=1 vs
# threads=8).  With -DEXPECT_DIFFER=1 it fails if they are
# byte-identical — the guard that an option actually changes
# behaviour (e.g. policy=explore vs policy=static must not print the
# same table).  With -DFILTER=<regex> only the lines matching the
# regex are compared, and a regex that matches no line of either run
# fails the check.

if(NOT DEFINED BIN OR NOT DEFINED OUT)
    message(FATAL_ERROR "RunGolden.cmake needs -DBIN= and -DOUT=")
endif()
if(NOT DEFINED ARGS2 AND NOT DEFINED GOLDEN AND NOT DEFINED SETUP_DIR)
    message(FATAL_ERROR
            "RunGolden.cmake needs -DGOLDEN= (or -DARGS2= for a "
            "pair check, or -DSETUP_DIR= for a setup run)")
endif()
if((EXPECT_DIFFER OR DEFINED FILTER) AND NOT DEFINED ARGS2)
    message(FATAL_ERROR "EXPECT_DIFFER and FILTER need -DARGS2=")
endif()

# Fail unless every STDERR regex matches a line of ${err}.
function(require_stderr err cmdline)
    if(NOT DEFINED STDERR)
        return()
    endif()
    file(WRITE "${OUT}.err" "${err}")
    foreach(regex IN LISTS STDERR)
        file(STRINGS "${OUT}.err" hits REGEX "${regex}")
        if(NOT hits)
            message(FATAL_ERROR
                    "no stderr line of `${cmdline}` matches "
                    "`${regex}` (${OUT}.err)")
        endif()
    endforeach()
endfunction()

if(DEFINED SETUP_DIR)
    file(REMOVE_RECURSE "${SETUP_DIR}")
endif()

separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${ARG_LIST}
                OUTPUT_VARIABLE output
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "golden run failed (rc=${rc}): ${BIN} ${ARGS}\n${err}")
endif()

if(DEFINED ARGS2)
    separate_arguments(ARG2_LIST UNIX_COMMAND "${ARGS2}")
    execute_process(COMMAND ${BIN} ${ARG2_LIST}
                    OUTPUT_VARIABLE output2
                    ERROR_VARIABLE err2
                    RESULT_VARIABLE rc2)
    if(NOT rc2 EQUAL 0)
        message(FATAL_ERROR
                "pair run failed (rc=${rc2}): ${BIN} ${ARGS2}\n${err2}")
    endif()
    require_stderr("${err2}" "${BIN} ${ARGS2}")
    if(DEFINED FILTER)
        foreach(var output output2)
            file(WRITE "${OUT}" "${${var}}")
            file(STRINGS "${OUT}" lines REGEX "${FILTER}")
            list(JOIN lines "\n" ${var})
        endforeach()
        if(output STREQUAL "" AND output2 STREQUAL "")
            message(FATAL_ERROR
                    "FILTER `${FILTER}` matches no line of "
                    "`${BIN} ${ARGS}` or `${BIN} ${ARGS2}`")
        endif()
    endif()
    if(EXPECT_DIFFER AND output STREQUAL output2)
        file(WRITE "${OUT}" "${output}")
        message(FATAL_ERROR
                "`${BIN} ${ARGS}` and `${BIN} ${ARGS2}` printed "
                "byte-identical output (${OUT}); the differing "
                "option is being ignored")
    endif()
    if(NOT EXPECT_DIFFER AND NOT output STREQUAL output2)
        file(WRITE "${OUT}" "${output}")
        file(WRITE "${OUT}.2" "${output2}")
        message(FATAL_ERROR
                "`${BIN} ${ARGS}` and `${BIN} ${ARGS2}` must print "
                "byte-identical output but differ:\n  diff ${OUT} "
                "${OUT}.2")
    endif()
    return()
endif()

require_stderr("${err}" "${BIN} ${ARGS}")
if(DEFINED SETUP_DIR)
    return()
endif()

if(UPDATE)
    file(WRITE "${GOLDEN}" "${output}")
    message(STATUS "updated ${GOLDEN}")
    return()
endif()

if(NOT EXISTS "${GOLDEN}")
    message(FATAL_ERROR
            "golden file ${GOLDEN} is missing; regenerate with "
            "`ctest -C golden_update -R golden_update`")
endif()

file(READ "${GOLDEN}" expected)
if(NOT output STREQUAL expected)
    file(WRITE "${OUT}" "${output}")
    message(FATAL_ERROR
            "output of `${BIN} ${ARGS}` differs from the committed "
            "golden.\n  diff ${GOLDEN} ${OUT}\nIf the change is "
            "intended, regenerate with "
            "`ctest -C golden_update -R golden_update` and commit "
            "the new golden.")
endif()
