#include "io/lease.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <utility>

#include "io/atomic_file.h"

namespace tsg::io {

namespace {

const std::string& HostName() {
  static const std::string* host = [] {
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0) {
      return new std::string("unknown-host");
    }
    return new std::string(buf);
  }();
  return *host;
}

/// Token characters that survive into file names (BreakLease sidecars).
std::string SanitizeToken(const std::string& token) {
  std::string out = token;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

struct LeaseOwner {
  std::string host;
  long pid = 0;
};

/// The token a lease file carries, without AcquireLease's trailing newline.
StatusOr<std::string> ReadLeaseToken(const std::string& path) {
  StatusOr<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content;
  std::string token = std::move(content).value();
  while (!token.empty() && (token.back() == '\n' || token.back() == '\r')) {
    token.pop_back();
  }
  return token;
}

/// Parses "<host>:<pid>:<nonce>".
bool ParseOwnerToken(const std::string& content, LeaseOwner* owner) {
  const size_t host_end = content.find(':');
  if (host_end == std::string::npos) return false;
  const size_t pid_end = content.find(':', host_end + 1);
  if (pid_end == std::string::npos || pid_end == host_end + 1) return false;
  owner->host = content.substr(0, host_end);
  char* end = nullptr;
  const std::string pid_str = content.substr(host_end + 1, pid_end - host_end - 1);
  owner->pid = std::strtol(pid_str.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && owner->pid > 0;
}

}  // namespace

const std::string& LeaseOwnerToken() {
  static const std::string* token = [] {
    std::random_device rd;
    const uint64_t nonce =
        (static_cast<uint64_t>(rd()) << 32) ^ static_cast<uint64_t>(rd());
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s:%ld:%016llx", HostName().c_str(),
                  static_cast<long>(getpid()),
                  static_cast<unsigned long long>(nonce));
    return new std::string(buf);
  }();
  return *token;
}

StatusOr<bool> AcquireLease(const std::string& path, const std::string& token) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    if (errno == EEXIST) return false;
    return Status::IoError("cannot create lease " + path + ": " +
                           std::strerror(errno));
  }
  const std::string content = token + "\n";
  const ssize_t written = ::write(fd, content.data(), content.size());
  ::close(fd);
  if (written != static_cast<ssize_t>(content.size())) {
    std::remove(path.c_str());
    return Status::IoError("short write to lease " + path);
  }
  return true;
}

LeaseState ProbeLease(const std::string& path, double stale_after_seconds,
                      std::string* owner) {
  if (owner != nullptr) owner->clear();
  const StatusOr<std::string> token = ReadLeaseToken(path);
  if (!token.ok()) return LeaseState::kFree;
  if (owner != nullptr) *owner = token.value();
  LeaseOwner parsed;
  if (ParseOwnerToken(token.value(), &parsed) && parsed.host == HostName()) {
    // Same host: the process table is authoritative. EPERM still means alive.
    if (::kill(static_cast<pid_t>(parsed.pid), 0) != 0 && errno == ESRCH) {
      return LeaseState::kDead;
    }
    return LeaseState::kLive;
  }
  // Foreign host (or corrupt token): fall back to the age TTL.
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return LeaseState::kFree;  // Vanished between read and stat.
  const double age =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::filesystem::file_time_type::clock::now() - mtime)
          .count();
  return age >= stale_after_seconds ? LeaseState::kDead : LeaseState::kLive;
}

StatusOr<bool> BreakLease(const std::string& path, const std::string& owner,
                          const std::string& token) {
  // The destination embeds the stealer's token, so concurrent stealers never
  // rename onto each other: they race only on the source, where rename(2)
  // hands exactly one of them success and the rest ENOENT.
  const std::string dest = path + ".stale-" + SanitizeToken(token);
  if (std::rename(path.c_str(), dest.c_str()) != 0) {
    if (errno == ENOENT) return false;
    return Status::IoError("cannot break lease " + path + ": " +
                           std::strerror(errno));
  }
  // Between the caller's probe and the rename, a faster stealer may have
  // broken the probed lease and claimed the path anew. That live lease goes
  // back; link(2) fails rather than replace a claim made since the rename.
  const StatusOr<std::string> moved = ReadLeaseToken(dest);
  const bool probed = moved.ok() && moved.value() == owner;
  if (!probed) (void)::link(dest.c_str(), path.c_str());
  std::remove(dest.c_str());
  return probed;
}

Status ReleaseLease(const std::string& path, const std::string& token) {
  const StatusOr<std::string> content = ReadLeaseToken(path);
  if (!content.ok()) {
    return Status::NotFound("lease already gone: " + path);
  }
  const std::string& held = content.value();
  if (held != token) {
    return Status::FailedPrecondition("lease " + path + " held by " + held +
                                      ", not " + token);
  }
  if (std::remove(path.c_str()) != 0) {
    return Status::IoError("cannot remove lease " + path + ": " +
                           std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace tsg::io
