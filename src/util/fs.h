// Crash-atomic file writes: tmp -> write -> fsync(file) -> rename ->
// fsync(directory).
//
// The rename makes the update atomic against concurrent READERS; the two
// fsyncs make it atomic against CRASHES — without them a power cut can
// leave the final name pointing at a zero-length or partial file (the
// rename metadata can reach disk before the data).  Cache entries (region
// entries included) and explore state files promise "valid or absent", so
// they pay for the full sequence.
#ifndef TWM_UTIL_FS_H
#define TWM_UTIL_FS_H

#include <string>
#include <string_view>

namespace twm::util {

// Writes `contents` to `path` crash-atomically via a uniquely-named
// `path + tmp_suffix + <pid>.<seq>` sibling, so concurrent writers of the
// same path never share a tmp file.  Returns false (tmp file removed,
// final path untouched) on any failure.  All syscalls retry EINTR.
bool atomic_write_file(const std::string& path, std::string_view contents,
                       const char* tmp_suffix = ".tmp");

}  // namespace twm::util

#endif  // TWM_UTIL_FS_H
