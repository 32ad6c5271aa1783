#pragma once

// Output digests: every study output is streamed through a hashing
// streambuf instead of to disk, and the digest is compared with the one
// committed in v6bench/digests.txt.
//
// The hash is FNV-1a 64 (offset basis 0xcbf29ce484222325, prime
// 0x100000001b3) over the output's bytes, printed as 16 lowercase hex
// digits. It is fixed by this file, not by the standard library, so a
// digest means the same bytes on every compiler and platform.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace v6bench {

/// Hashes and counts everything written through it; stores nothing.
class HashingBuf final : public std::streambuf {
 public:
  HashingBuf() { setp(buf_.data(), buf_.data() + buf_.size()); }
  HashingBuf(const HashingBuf&) = delete;
  HashingBuf& operator=(const HashingBuf&) = delete;

  /// FNV-1a 64 of every byte written so far.
  [[nodiscard]] std::uint64_t digest() {
    drain();
    return hash_;
  }
  [[nodiscard]] std::uint64_t bytes() {
    drain();
    return bytes_;
  }
  [[nodiscard]] std::uint64_t lines() {
    drain();
    return lines_;
  }

 protected:
  int_type overflow(int_type ch) override;
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain();

  std::array<char, 1 << 16> buf_{};
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t bytes_ = 0;
  std::uint64_t lines_ = 0;
};

/// One output's fingerprint.
struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t bytes = 0;
  bool operator==(const Digest&) const = default;
};

/// Output name -> digest, for one (workload, seed).
using DigestMap = std::map<std::string, Digest>;

/// The committed digest file: (workload, seed) -> outputs. One line per
/// output, `<workload> <seed> <output> <16 hex digits> <bytes>`; lines
/// starting with '#' are comments.
class DigestFile {
 public:
  /// Throws std::runtime_error when the file is missing or malformed.
  static DigestFile load(const std::string& path);

  /// Null when nothing is committed for (workload, seed).
  [[nodiscard]] const DigestMap* find(const std::string& workload,
                                      std::uint64_t seed) const;
  void put(const std::string& workload, std::uint64_t seed, DigestMap outputs);
  /// Rewrite the file (sorted by workload, seed, output).
  void save(const std::string& path) const;

 private:
  std::map<std::pair<std::string, std::uint64_t>, DigestMap> entries_;
};

[[nodiscard]] std::string hex(std::uint64_t v);

/// Digests every output of one study and checks it against the expected
/// map. An output counts as failed when its writer throws, when its
/// digest differs from the expected one, or when the expected map has no
/// entry for it; an expected output the study never produced counts as
/// failed at close(). With no expected map (regeneration) nothing fails
/// except a throwing writer.
class OutputCheck {
 public:
  explicit OutputCheck(const DigestMap* expected) : expected_(expected) {}

  /// Stream one output through a hashing sink and check it. Returns the
  /// output's size in bytes and, in `lines`, its line count.
  std::uint64_t emit(const std::string& name,
                     const std::function<void(std::ostream&)>& write,
                     std::uint64_t* lines = nullptr);
  /// Count expected outputs that were never produced.
  void close();

  [[nodiscard]] const DigestMap& produced() const { return produced_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// One line per failure, for the report.
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }

 private:
  const DigestMap* expected_;
  DigestMap produced_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

}  // namespace v6bench
