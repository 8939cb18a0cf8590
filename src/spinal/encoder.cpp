#include "spinal/encoder.h"

namespace spinal {

SpinalEncoder::SpinalEncoder(const CodeParams& params, const util::BitVec& message)
    : params_(validated(params)),
      h_(params.hash_kind, params.salt),
      constellation_(params.map, params.c, params.power, params.beta),
      schedule_(params),
      spine_(compute_spine(params, h_, message)) {}

void SpinalEncoder::encode_subpass(int sp, std::vector<SymbolId>& ids_out,
                                   std::vector<std::complex<float>>& out) const {
  const std::size_t first = ids_out.size();
  schedule_.subpass(sp, ids_out);
  for (std::size_t i = first; i < ids_out.size(); ++i) out.push_back(symbol(ids_out[i]));
}

BscSpinalEncoder::BscSpinalEncoder(const CodeParams& params, const util::BitVec& message)
    : params_(validated(params)),
      h_(params.hash_kind, params.salt),
      schedule_(params),
      spine_(compute_spine(params, h_, message)) {}

void BscSpinalEncoder::encode_subpass(int sp, std::vector<SymbolId>& ids_out,
                                      std::vector<std::uint8_t>& out) const {
  const std::size_t first = ids_out.size();
  schedule_.subpass(sp, ids_out);
  for (std::size_t i = first; i < ids_out.size(); ++i) out.push_back(bit(ids_out[i]));
}

}  // namespace spinal
