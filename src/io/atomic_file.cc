#include "io/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

namespace tsg::io {

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  // Each call writes a temp file of its own (pid and a process-wide counter make
  // the name unique; O_EXCL skips a stale one), so two writers of one path never
  // truncate each other's inode: every rename publishes one whole file.
  static std::atomic<uint64_t> next_id{0};
  std::string tmp;
  int fd = -1;
  do {
    tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(next_id.fetch_add(1));
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (fd < 0 && errno == EEXIST);
  if (fd < 0) {
    return Status::IoError("cannot open for writing: " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < content.size()) {
    const ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  if (::close(fd) != 0 || written != content.size()) {
    std::remove(tmp.c_str());
    return Status::IoError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open for reading: " + path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IoError("read failed: " + path);
  return content;
}

}  // namespace tsg::io
