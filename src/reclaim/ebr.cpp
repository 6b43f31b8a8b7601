#include "reclaim/ebr.hpp"

#include <algorithm>

#include "platform/topology.hpp"
#include "util/env.hpp"

namespace rcua::reclaim {

std::size_t default_ebr_stripes(std::size_t min_readers) {
  // Read the knob on every construction (Ebr instances are created at
  // structure-construction time, never on a hot path) so tests can vary
  // RCUA_EBR_STRIPES without process restarts.
  std::uint64_t n = util::env_u64("RCUA_EBR_STRIPES", 0);
  if (n == 0) {
    n = std::max<std::uint64_t>(plat::hardware_threads(), min_readers);
  }
  if (n > 256) n = 256;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Explicit instantiations of the widths used across the project: the
// default 64-bit epoch and the narrow widths the Lemma 2 overflow tests
// drive through wrap-around, in both reader-bank layouts.
template class BasicEbr<std::uint64_t, StripedReaders>;
template class BasicEbr<std::uint32_t, StripedReaders>;
template class BasicEbr<std::uint16_t, StripedReaders>;
template class BasicEbr<std::uint8_t, StripedReaders>;
template class BasicEbr<std::uint64_t, LegacyReaders>;
template class BasicEbr<std::uint8_t, LegacyReaders>;

}  // namespace rcua::reclaim
