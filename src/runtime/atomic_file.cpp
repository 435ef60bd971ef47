#include "runtime/atomic_file.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mev::runtime {

namespace {

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(is);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os)
      throw std::runtime_error("write_file_atomic: cannot open " + tmp);
    os.write(contents.data(),
             static_cast<std::streamsize>(contents.size()));
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("write_file_atomic: write failure on " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file_atomic: cannot rename " + tmp +
                             " to " + path);
  }
}

void write_envelope_atomic(const std::string& path, std::uint32_t magic,
                           std::uint32_t version, std::string_view payload) {
  std::ostringstream os(std::ios::binary);
  write_pod(os, magic);
  write_pod(os, version);
  write_pod(os, static_cast<std::uint64_t>(payload.size()));
  write_pod(os, fnv1a64(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  write_file_atomic(path, os.str());
}

std::string read_envelope(const std::string& path, std::uint32_t magic,
                          std::uint32_t expected_version,
                          const std::string& what) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("load " + what + ": cannot open " + path);
  std::uint32_t file_magic = 0, version = 0;
  std::uint64_t size = 0, checksum = 0;
  if (!read_pod(is, file_magic) || !read_pod(is, version) ||
      !read_pod(is, size) || !read_pod(is, checksum))
    throw std::runtime_error("load " + what + ": " + path +
                             " is truncated (incomplete header)");
  if (file_magic != magic)
    throw std::runtime_error("load " + what + ": " + path +
                             " has wrong magic (not a " + what + " file)");
  if (version != expected_version)
    throw std::runtime_error("load " + what + ": " + path +
                             " has unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(expected_version) + ")");
  std::string payload(size, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size)
    throw std::runtime_error(
        "load " + what + ": " + path + " is truncated (" +
        std::to_string(is.gcount()) + " of " + std::to_string(size) +
        " payload bytes)");
  if (fnv1a64(payload) != checksum)
    throw std::runtime_error("load " + what + ": " + path +
                             " failed its checksum (corrupted file)");
  return payload;
}

}  // namespace mev::runtime
