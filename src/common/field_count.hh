/**
 * @file
 * fieldCount<T>(): the member count of aggregate T, for the
 * static_asserts that keep each hand-written field list complete.
 * It counts members, not bytes: a bool added into padding leaves
 * sizeof unchanged but still changes the count.
 */

#ifndef IRAW_COMMON_FIELD_COUNT_HH
#define IRAW_COMMON_FIELD_COUNT_HH

#include <cstddef>
#include <type_traits>
#include <utility>

namespace iraw {
namespace detail {

/** Converts to any member type: one stand-in initializer. */
struct AnyField
{
    template <class T>
    operator T() const;
};

template <class T, class Seq, class = void>
constexpr bool kBraceInitializable = false;

template <class T, size_t... I>
constexpr bool kBraceInitializable<
    T, std::index_sequence<I...>,
    std::void_t<decltype(T{((void)I, AnyField{})...})>> = true;

} // namespace detail

/** Members of aggregate @p T: the most initializers T{...} takes. */
template <class T, size_t N = 0>
constexpr size_t
fieldCount()
{
    static_assert(std::is_aggregate_v<T>, "fieldCount needs an aggregate");
    if constexpr (detail::kBraceInitializable<
                      T, std::make_index_sequence<N + 1>>)
        return fieldCount<T, N + 1>();
    else
        return N;
}

} // namespace iraw

#endif // IRAW_COMMON_FIELD_COUNT_HH
