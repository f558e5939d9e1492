// Crash-safe whole-document file writes, shared by every artifact writer
// (metrics JSON, Chrome trace, event journal, Prometheus text, postmortems).
#pragma once

#include <string>
#include <string_view>

#include "rt/status.hpp"

namespace gnnbridge::rt {

/// Writes `doc` to `path` crash-safely: the whole document goes to the
/// sibling file `path + ".tmp"`, which is then renamed over `path` (atomic
/// on POSIX), so a process killed mid-write leaves any previous file
/// intact. On failure the temp file is removed and the kUnavailable status
/// names the step: "cannot open for writing", "short write", "close failed"
/// or "rename into place failed". Callers add their own context and log.
Status write_file_atomic(const std::string& path, std::string_view doc);

}  // namespace gnnbridge::rt
