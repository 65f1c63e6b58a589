#include "nn/serialize.h"

#include <cstring>
#include <fstream>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/record_file.h"

namespace ldmo::nn {
namespace {
constexpr std::uint32_t kMagic = 0x4C444D4F;  // "LDMO"
constexpr std::uint64_t kHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Bytes a well-formed source for this parameter list must occupy, exactly.
std::uint64_t expected_bytes(const std::vector<Parameter*>& parameters) {
  std::uint64_t total = kHeaderBytes;
  for (const Parameter* p : parameters) {
    require(p != nullptr, "serialize: null parameter");
    total += sizeof(std::uint64_t) +
             static_cast<std::uint64_t>(p->value.size()) * sizeof(float);
  }
  return total;
}

/// The one encoder: hands the format's byte runs to `write(data, bytes)`
/// in order, then fires the "nn.save" failpoint.
template <class WriteFn>
void encode(const std::vector<Parameter*>& parameters, WriteFn write) {
  const std::uint32_t magic = kMagic;
  const std::uint64_t count = parameters.size();
  write(&magic, sizeof(magic));
  write(&count, sizeof(count));
  for (const Parameter* p : parameters) {
    require(p != nullptr, "save_parameters: null parameter");
    const std::uint64_t elements = p->value.size();
    write(&elements, sizeof(elements));
    write(p->value.data(), elements * sizeof(float));
  }
  fail::maybe_fail("nn.save", FlowStage::kPredict);
}

/// The one parser over a source of `size` bytes: `read(offset, dst, bytes)`
/// copies a run of it. Every check runs before the first parameter write.
template <class ReadFn>
void parse(const std::vector<Parameter*>& parameters, std::uint64_t size,
           ReadFn read, const std::string& source) {
  fail::maybe_fail("nn.load", FlowStage::kPredict);
  const std::string where = "weights (" + source + "): ";
  require(size >= kHeaderBytes, where + "truncated header");
  std::uint32_t magic = 0;
  std::uint64_t count = 0;
  read(0, &magic, sizeof(magic));
  read(sizeof(magic), &count, sizeof(count));
  require(magic == kMagic, where + "not LDMO weights");
  require(count == parameters.size(),
          where + "parameter count mismatch (source has " +
              std::to_string(count) + ", network has " +
              std::to_string(parameters.size()) + ")");
  // Bound everything against the actual size up front: a corrupt header
  // cannot ask for more bytes than exist, and trailing garbage after the
  // last tensor is rejected instead of silently ignored.
  const std::uint64_t expected = expected_bytes(parameters);
  require(size >= expected, where + "truncated");
  require(size <= expected, where + "trailing bytes after last tensor");
  std::uint64_t offset = kHeaderBytes;
  for (const Parameter* p : parameters) {
    std::uint64_t elements = 0;
    read(offset, &elements, sizeof(elements));
    require(elements == p->value.size(),
            where + "parameter size mismatch");
    offset += sizeof(elements) + elements * sizeof(float);
  }
  offset = kHeaderBytes;
  for (Parameter* p : parameters) {
    offset += sizeof(std::uint64_t);
    read(offset, p->value.data(), p->value.size() * sizeof(float));
    offset += p->value.size() * sizeof(float);
  }
}

}  // namespace

void save_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path) {
  common::replace_file(path, [&](std::ostream& out) {
    encode(parameters, [&](const void* data, std::size_t bytes) {
      out.write(static_cast<const char*>(data),
                static_cast<std::streamsize>(bytes));
    });
  });
}

std::vector<std::uint8_t> encode_parameters(
    const std::vector<Parameter*>& parameters) {
  std::vector<std::uint8_t> blob;
  blob.reserve(expected_bytes(parameters));
  encode(parameters, [&](const void* data, std::size_t bytes) {
    const auto* begin = static_cast<const std::uint8_t*>(data);
    blob.insert(blob.end(), begin, begin + bytes);
  });
  return blob;
}

void load_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  require(in.good(), "load_parameters: cannot open " + path);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  parse(parameters, size,
        [&](std::uint64_t offset, void* dst, std::size_t bytes) {
          in.seekg(static_cast<std::streamoff>(offset));
          in.read(static_cast<char*>(dst),
                  static_cast<std::streamsize>(bytes));
          require(in.good(), "weights (" + path + "): short read");
        },
        path);
}

void decode_parameters(const std::vector<Parameter*>& parameters,
                       const std::vector<std::uint8_t>& blob) {
  parse(parameters, blob.size(),
        [&](std::uint64_t offset, void* dst, std::size_t bytes) {
          std::memcpy(dst, blob.data() + offset, bytes);
        },
        "in-memory blob");
}

}  // namespace ldmo::nn
