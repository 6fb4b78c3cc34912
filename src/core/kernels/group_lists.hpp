/**
 * @file
 * The owner-map walk both groupSums bodies share (kernels.hpp). It is
 * compiled once, at the baseline ISA, in kernels_scalar.cpp; the AVX2
 * body calls it before any vector work.
 */

#ifndef MERCURY_CORE_KERNELS_GROUP_LISTS_HPP
#define MERCURY_CORE_KERNELS_GROUP_LISTS_HPP

#include <cstdint>

namespace mercury {
namespace kernels {

/**
 * One branch-free pass over a pass's owner map (owner[r] == r for an
 * owner row): list[0, groups) the owner rows ascending and
 * list[rows - forwarded, rows) the forwarded rows descending, with
 * slotOf[r] the group of owner row r. Returns groups.
 */
int64_t groupLists(const int32_t *owner, int64_t rows, int32_t *list,
                   int32_t *slotOf);

} // namespace kernels
} // namespace mercury

#endif // MERCURY_CORE_KERNELS_GROUP_LISTS_HPP
