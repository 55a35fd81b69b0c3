// Pins the 64-lane instantiation of the packed simulator into the library.
#include "memsim/packed_memory.h"

namespace twm {

template class PackedMemoryT<std::uint64_t>;

}  // namespace twm
