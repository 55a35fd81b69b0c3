// Pins the 64-lane instantiations of the packed march engine into the
// library.
#include "bist/packed_engine.h"

namespace twm {

template class PackedMisrT<std::uint64_t>;
template class PackedMarchRunnerT<std::uint64_t>;

}  // namespace twm
