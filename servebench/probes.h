// Direct timed calls into the library's kernel entry points, outside the
// serving loop, at the shapes a workload actually ran.
#pragma once

#include <cstdint>

#include "servebench/span_log.h"
#include "src/llm/tiny_transformer.h"

namespace servebench {

// Sustained read bandwidth of this host, GB/s: the best of a few parallel
// sums over a buffer far larger than the caches, on the global thread pool.
// It is the roofline every kern.*_roofline_frac is a share of.
double MeasureReadGbs();

struct ProbeResult {
  double us = 0.0;     // median wall time of one call
  double bytes = 0.0;  // computed bytes moved per call
  int64_t reps = 0;

  double Gbs() const { return us > 0.0 ? bytes / (us * 1e3) : 0.0; }
};

// One pass over one layer's six weight matrices of `model` (wq, wk, wv, wo,
// fc1, fc2), each re-encoded with TinyTransformer::EncodeFormat(), at panel
// width `cols`: CpuSpmvQuantInto when cols == 1, CpuSpmmQuantInto otherwise.
// Bytes are the encoded tensors' StorageBytes plus the FP32 activation
// panels read and written.
ProbeResult ProbeLayerMatmuls(const spinfer::TinyTransformer& model,
                              int64_t cols, SpanLog* log, const char* name);

// One PagedAttentionDecodeBatch call at layer 0 over `batch` sequences of
// `context` cached tokens each. Bytes are the K and V rows read (FP32).
ProbeResult ProbeAttention(const spinfer::TinyTransformer& model, int64_t batch,
                           int64_t context, SpanLog* log);

}  // namespace servebench
