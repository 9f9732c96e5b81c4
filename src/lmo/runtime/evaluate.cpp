#include "lmo/runtime/evaluate.hpp"

#include <cmath>

#include "lmo/tensor/ops.hpp"
#include "lmo/util/check.hpp"

namespace lmo::runtime {

double token_log_prob(const tensor::Tensor& logits, std::int64_t token) {
  LMO_CHECK_EQ(logits.shape().rank(), 1u);
  auto p = logits.f32();
  LMO_CHECK_GE(token, 0);
  LMO_CHECK_LT(token, static_cast<std::int64_t>(p.size()));
  float mx = p[0];
  for (float x : p) mx = std::max(mx, x);
  double sum = 0.0;
  for (float x : p) sum += std::exp(static_cast<double>(x - mx));
  return static_cast<double>(p[static_cast<std::size_t>(token)] - mx) -
         std::log(sum);
}

EvalResult evaluate_sequence(Generator& generator,
                             std::span<const std::int64_t> tokens,
                             std::int64_t context_len) {
  LMO_CHECK_GE(context_len, 1);
  LMO_CHECK_GT(static_cast<std::int64_t>(tokens.size()), context_len);

  auto& transformer = generator.transformer();
  auto cache = transformer.make_cache(generator.kv_blocks());

  // One forward pass over the whole sequence; the causal mask inside
  // attention makes every row's hidden state depend only on its prefix.
  std::vector<tensor::Tensor> states = {transformer.embed(tokens)};
  std::vector<SequenceCache*> caches = {&cache};
  transformer.forward(states, caches);

  EvalResult result;
  const std::int64_t rows = states[0].shape()[0];
  for (std::int64_t pos = context_len - 1; pos + 1 < rows; ++pos) {
    // logits() scores the last row of the slice [0, pos] → predicts pos+1.
    const tensor::Tensor row_logits =
        transformer.logits(tensor::slice_rows(states[0], 0, pos + 1));
    result.nll += -token_log_prob(
        row_logits, tokens[static_cast<std::size_t>(pos + 1)]);
    ++result.tokens;
  }
  LMO_CHECK_GT(result.tokens, 0);
  result.mean_nll = result.nll / static_cast<double>(result.tokens);
  result.perplexity = std::exp(result.mean_nll);
  return result;
}

EvalResult evaluate_corpus(
    Generator& generator,
    const std::vector<std::vector<std::int64_t>>& sequences,
    std::int64_t context_len) {
  LMO_CHECK(!sequences.empty());
  EvalResult pooled;
  for (const auto& seq : sequences) {
    const EvalResult one = evaluate_sequence(generator, seq, context_len);
    pooled.nll += one.nll;
    pooled.tokens += one.tokens;
  }
  pooled.mean_nll = pooled.nll / static_cast<double>(pooled.tokens);
  pooled.perplexity = std::exp(pooled.mean_nll);
  return pooled;
}

}  // namespace lmo::runtime
