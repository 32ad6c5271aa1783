#include "digest.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/error.h"

namespace v6bench {

HashingBuf::int_type HashingBuf::overflow(int_type ch) {
  drain();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
  }
  return traits_type::not_eof(ch);
}

void HashingBuf::drain() {
  std::uint64_t h = hash_;
  std::uint64_t nl = 0;
  for (const char* p = pbase(); p != pptr(); ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001b3ULL;
    nl += *p == '\n' ? 1 : 0;
  }
  hash_ = h;
  lines_ += nl;
  bytes_ += static_cast<std::uint64_t>(pptr() - pbase());
  setp(buf_.data(), buf_.data() + buf_.size());
}

std::string hex(std::uint64_t v) {
  char out[17];
  std::snprintf(out, sizeof out, "%016" PRIx64, v);
  return out;
}

DigestFile DigestFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  DigestFile file;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, output, digest_hex;
    std::uint64_t seed = 0;
    Digest d;
    if (!(fields >> workload >> seed >> output >> digest_hex >> d.bytes) ||
        digest_hex.size() != 16) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": want <workload> <seed> <output> <hex16> <bytes>");
    }
    std::size_t used = 0;
    d.hash = std::stoull(digest_hex, &used, 16);
    if (used != 16) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": bad digest");
    }
    file.entries_[{workload, seed}][output] = d;
  }
  return file;
}

const DigestMap* DigestFile::find(const std::string& workload,
                                  std::uint64_t seed) const {
  const auto it = entries_.find({workload, seed});
  return it == entries_.end() ? nullptr : &it->second;
}

void DigestFile::put(const std::string& workload, std::uint64_t seed,
                     DigestMap outputs) {
  entries_[{workload, seed}] = std::move(outputs);
}

void DigestFile::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# v6bench output digests: FNV-1a 64 over each output's bytes.\n"
         "# Regenerate with `python3 v6bench/run.py --regenerate ...`, never by hand.\n"
         "# <workload> <seed> <output> <digest> <bytes>\n";
  for (const auto& [key, outputs] : entries_) {
    for (const auto& [name, d] : outputs) {
      out << key.first << ' ' << key.second << ' ' << name << ' ' << hex(d.hash)
          << ' ' << d.bytes << '\n';
    }
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write digest file " + path);
}

std::uint64_t OutputCheck::emit(const std::string& name,
                                const std::function<void(std::ostream&)>& write,
                                std::uint64_t* lines) {
  ++attempted_;
  HashingBuf buf;
  std::ostream out(&buf);
  try {
    write(out);
    out.flush();
    if (out.fail()) throw v6mon::IoError("stream in fail state");
  } catch (const v6mon::IoError& e) {
    ++failed_;
    problems_.push_back(name + ": write failed: " + e.what());
    return 0;
  }
  const Digest got{buf.digest(), buf.bytes()};
  produced_[name] = got;
  if (lines != nullptr) *lines = buf.lines();
  if (expected_ != nullptr) {
    const auto it = expected_->find(name);
    if (it == expected_->end()) {
      ++failed_;
      problems_.push_back(name + ": no committed digest");
    } else if (!(it->second == got)) {
      ++failed_;
      problems_.push_back(name + ": digest " + hex(got.hash) + " (" +
                          std::to_string(got.bytes) + " B), committed " +
                          hex(it->second.hash) + " (" +
                          std::to_string(it->second.bytes) + " B)");
    }
  }
  return got.bytes;
}

void OutputCheck::close() {
  if (expected_ == nullptr) return;
  for (const auto& [name, d] : *expected_) {
    if (produced_.count(name) == 0) {
      ++attempted_;
      ++failed_;
      problems_.push_back(name + ": committed but not produced");
    }
  }
}

}  // namespace v6bench
