#ifndef TSG_IO_ATOMIC_FILE_H_
#define TSG_IO_ATOMIC_FILE_H_

#include <string>

#include "base/status.h"

namespace tsg::io {

/// Writes `content` to `path` through a temp file + rename, so readers never
/// observe a partially written artifact and a writer killed mid-write leaves any
/// previous version of the file intact. Every call uses its own temp file next
/// to the target (`<path>.tmp.<pid>.<n>`), so the rename stays on one filesystem
/// and is atomic on POSIX, concurrent writers of one path each publish a whole
/// file (the last rename wins), and no `*.csv`/`*.json` glob matches a temp
/// file. The temp file is removed on every failure.
Status WriteFileAtomic(const std::string& path, const std::string& content);

/// Reads `path` in full (binary, no newline translation). Returns kNotFound when
/// the file does not exist so callers can distinguish "no artifact yet" from a
/// real IO failure.
StatusOr<std::string> ReadFileToString(const std::string& path);

}  // namespace tsg::io

#endif  // TSG_IO_ATOMIC_FILE_H_
