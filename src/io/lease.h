#ifndef TSG_IO_LEASE_H_
#define TSG_IO_LEASE_H_

#include <string>

#include "base/status.h"

namespace tsg::io {

/// Advisory file leases for multi-process work claiming (DESIGN.md §10).
///
/// A lease is a small file whose existence marks a resource (e.g. one grid
/// cell) as owned. The primitives below compose into the claim/steal protocol
/// the sharded grid runner uses:
///
///   * Claim: AcquireLease creates the file with O_CREAT|O_EXCL — the one
///     atomic "create iff absent" the filesystem gives us — so exactly one of
///     any number of concurrent claimants wins.
///   * Inspect: ProbeLease reads the owner token and classifies the lease as
///     live, or dead (owner process gone on this host, or older than a TTL).
///   * Steal: BreakLease renames the lease file to a claimant-unique sidecar.
///     rename(2) fails with ENOENT once the source is gone, so exactly one of
///     any number of concurrent stealers wins; the winner then claims the now
///     absent path with AcquireLease as usual. The stealer names the token it
///     probed, so a lease taken after the probe is put back, not stolen.
///   * Release: ReleaseLease removes the file only when it still carries the
///     caller's token, so an owner that was (wrongly) declared dead and stolen
///     from cannot delete the thief's lease.
///
/// Leases are advisory: nothing stops a process that ignores them. They are a
/// coordination protocol for cooperating workers, not a security boundary.

/// This process's owner token, "<host>:<pid>:<nonce>". The nonce is drawn once
/// per process so two incarnations with a recycled pid still differ.
const std::string& LeaseOwnerToken();

/// What ProbeLease concluded about a lease file.
enum class LeaseState {
  kFree,  ///< No lease file (or it vanished mid-probe).
  kLive,  ///< Held, and the owner is believed alive.
  kDead,  ///< Held, but the owner is gone or the lease exceeded the TTL.
};

/// Atomically creates `path` containing `token`. Returns true when this call
/// created the lease (the caller now owns it), false when it already existed.
StatusOr<bool> AcquireLease(const std::string& path, const std::string& token);

/// Classifies `path`. A same-host owner is probed directly with kill(pid, 0):
/// ESRCH means dead regardless of age. Otherwise (foreign host, or an
/// unparseable token) the lease is dead once its mtime is at least
/// `stale_after_seconds` old. When `owner` is non-null it receives the token
/// the probe read (empty when the lease is free): the one to hand BreakLease.
LeaseState ProbeLease(const std::string& path, double stale_after_seconds,
                      std::string* owner = nullptr);

/// Atomically takes `path` out of service by renaming it to a sidecar unique
/// to `token`. Returns true when this call moved the lease `owner` holds (the
/// caller may now AcquireLease the freed path), false when the lease was
/// already gone — released by its owner or broken by a faster stealer — or
/// when the moved file carried another token: a claim that replaced the
/// probed lease after the probe. That lease is put back with link(2), which
/// fails rather than replace a lease created in the meantime.
StatusOr<bool> BreakLease(const std::string& path, const std::string& owner,
                          const std::string& token);

/// Removes the lease at `path` iff it still carries `token`. NotFound when
/// the file is gone, FailedPrecondition when another token holds it (the
/// lease was stolen while the caller worked — its files are left untouched).
Status ReleaseLease(const std::string& path, const std::string& token);

}  // namespace tsg::io

#endif  // TSG_IO_LEASE_H_
