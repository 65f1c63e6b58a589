// Binary weight serialization.
//
// Format: magic, parameter count, then per parameter its element count and
// raw float payload. One encoder writes it and one parser reads it, each
// on a file or on an in-memory blob, so a weight file and a weight blob
// are the same bytes. The parser checks the magic, the parameter count,
// every element count and the exact size against the network before it
// writes a single value: a mismatched architecture, a truncated payload
// or trailing garbage throws and leaves the network untouched. Files are
// streamed straight into the parameters, never buffered whole. Saving
// streams through common::replace_file, so a failed or interrupted save
// never destroys the previous weights. The encoder fires the "nn.save"
// failpoint and the parser "nn.load", on both paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace ldmo::nn {

/// Writes all parameter values to `path` (common::replace_file). Throws on
/// I/O failure, leaving any previous file at `path` intact.
void save_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path);

/// The bytes save_parameters would write, in memory.
std::vector<std::uint8_t> encode_parameters(
    const std::vector<Parameter*>& parameters);

/// Loads parameter values from `path` into the given (already constructed)
/// parameter list. Throws on I/O failure or layout mismatch.
void load_parameters(const std::vector<Parameter*>& parameters,
                     const std::string& path);

/// load_parameters from an in-memory blob (encode_parameters format).
void decode_parameters(const std::vector<Parameter*>& parameters,
                       const std::vector<std::uint8_t>& blob);

}  // namespace ldmo::nn
