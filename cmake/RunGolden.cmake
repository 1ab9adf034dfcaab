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
# Pair mode (no golden file involved):
#   cmake -DBIN=<binary> -DARGS="..." -DARGS2="..." [-DEXPECT_DIFFER=1]
#         -DOUT=<scratch> -P RunGolden.cmake
# runs the binary twice and fails unless both stdouts are
# byte-identical — an equivalence invariant (e.g. threads=1 vs
# threads=8).  With -DEXPECT_DIFFER=1 it fails if they are
# byte-identical — the guard that an option actually changes
# behaviour (e.g. policy=explore vs policy=static must not print the
# same table).

if(NOT DEFINED BIN OR NOT DEFINED OUT)
    message(FATAL_ERROR "RunGolden.cmake needs -DBIN= and -DOUT=")
endif()
if(NOT DEFINED ARGS2 AND NOT DEFINED GOLDEN)
    message(FATAL_ERROR
            "RunGolden.cmake needs -DGOLDEN= (or -DARGS2= for a "
            "pair check)")
endif()
if(EXPECT_DIFFER AND NOT DEFINED ARGS2)
    message(FATAL_ERROR "EXPECT_DIFFER needs -DARGS2=")
endif()

separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${ARG_LIST}
                OUTPUT_VARIABLE output
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "golden run failed (rc=${rc}): ${BIN} ${ARGS}")
endif()

if(DEFINED ARGS2)
    separate_arguments(ARG2_LIST UNIX_COMMAND "${ARGS2}")
    execute_process(COMMAND ${BIN} ${ARG2_LIST}
                    OUTPUT_VARIABLE output2
                    RESULT_VARIABLE rc2)
    if(NOT rc2 EQUAL 0)
        message(FATAL_ERROR
                "pair run failed (rc=${rc2}): ${BIN} ${ARGS2}")
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
