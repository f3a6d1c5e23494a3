/**
 * @file
 * Runtime-dispatched SIMD kernel layer for the project's dense inner
 * loops: dot products, axpy/scale sweeps, the GEMM kernels,
 * the kNN distance evaluations and the MLP layer micro-ops.
 *
 * Three tiers implement the same kernel table:
 *   - scalar  portable C++, one lane, compiles and runs everywhere;
 *   - avx2    4 lanes of 256-bit AVX2 with FMA, selected at startup
 *             when the CPU reports both AVX2 and FMA (overridable with
 *             --simd or the DTRANK_SIMD environment variable);
 *   - avx512  8 lanes of 512-bit AVX-512F, selected when the CPU
 *             reports avx512f (same overrides; an unavailable request
 *             falls back to the best remaining tier).
 * The three tiers are one body (kernels_vector.h) templated on a
 * per-width traits struct, which each tier's TU instantiates at its
 * width (1, 4 or 8 lanes).
 *
 * # The canonical reduction contract
 *
 * The repository's headline guarantee is that every protocol run is
 * bit-identical across thread counts, caches and machines. Dispatch
 * adds a new axis: the same binary must produce the same bits whether
 * the scalar or the AVX2 tier runs. Floating-point addition is not
 * associative, so both tiers commit to ONE summation order — the
 * canonical lane-blocked reduction — instead of each tier summing in
 * its naturally fastest order:
 *
 *   - terms are consumed in blocks of 16 (4 lanes x 4-way unroll);
 *     term i of a full block feeds partial accumulator s[i mod 16];
 *   - the 16 partials are combined in a fixed tree mirroring the AVX2
 *     register combine (vector adds, then a low/high 128-bit fold):
 *         L_l = (s[l] + s[l+4]) + (s[l+8] + s[l+12])   for l = 0..3
 *         R   = (L_0 + L_2) + (L_1 + L_3)
 *   - the trailing n mod 16 terms accumulate sequentially into a
 *     separate scalar, added last:  result = R + tail.
 *
 * Each tier holds the partials in 16 / W values of W lanes (partial j
 * in lane j % W of value j / W) and folds them with its width's
 * spelling of the tree above: at 1 lane the tree written out over 16
 * doubles, at 4 lanes the vector adds and the 128-bit fold, at 8
 * lanes a 256-bit half-add first, so each lane-add lands on the
 * identical (s[l] + s[l+4]) + (s[l+8] + s[l+12]) association.
 * tests/simd/reference_kernels.h writes the order out in plain loops,
 * as the oracle every tier is tested against.
 *
 * No reduction or sweep uses fused multiply-add: FMA rounds once
 * where mul+add rounds twice, so the kernels write mul and add, and
 * every target builds with -ffp-contract=off (top-level
 * CMakeLists.txt) so the compiler cannot fuse a pair behind the
 * source's back either. The one exception is exp (exp.h), whose fused
 * operations are written out as fused in every tier — an FMA
 * instruction in the vector tiers, exp.h's fmaSoft (one rounding,
 * from plain IEEE operations) in the scalar tier — so they round once
 * everywhere and the tiers still agree bit for bit.
 *
 * Elementwise kernels (axpy, scale, mul_add, the GEMM microkernel
 * inner sweep, the MLP update) never sum across elements, so they are
 * bit-identical across tiers by construction at any lane width.
 *
 * # Lane-parallel dots
 *
 * The contract fixes each dot's operation sequence, not which
 * register holds it. Many INDEPENDENT dots of the same length k (one
 * per sample, all against one weight row) can therefore run with the
 * samples as vector lanes: keep each of the 16 partials, and the
 * tail, as a vector over the samples, zero-initialized; add term i's
 * products into partial (i mod 16) while i is inside a full block and
 * into the tail after it (an elementwise axpy per term); then fold
 * the vectors elementwise with the combine tree above and add the
 * tail last. Every lane performs exactly the per-row kernel's adds in
 * the per-row kernel's order, and IEEE multiplication commutes
 * (w * x == x * w), so each lane is bit-identical to kt.dot on its
 * row, in every tier — no per-tier code is needed. gemmDotColumns is
 * this form.
 *
 * # Lane-parallel networks
 *
 * The same argument carries over from dots to whole training steps:
 * k independent MLPs of one shape, one network per lane, each lane
 * doing exactly the per-sample engine's operations in its order
 * (see mlpLaneStep). Only the layout is new — every per-network
 * array gains a trailing lane index — so one templated body
 * (mlp_lane_step.h) serves every tier at its own vector width.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace dtrank::simd
{

/** Dispatch tiers, ordered from most portable to most specialized. */
enum class Tier
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/**
 * Lane stride of the MLP lane step: every lane-parallel array holds
 * kMlpLanes doubles per element, lane l at offset l. A multiple of
 * every tier's vector width, so each tier walks whole vectors.
 */
inline constexpr std::size_t kMlpLanes = 8;

/**
 * Operands of one mlpLaneStep call: one per-sample backpropagation
 * step of up to kMlpLanes independent networks with one sigmoid
 * hidden layer and one linear output unit. Every array is lane-minor
 * with stride kMlpLanes: element e of lane l lives at
 * [e * kMlpLanes + l]. Per lane, the weight arrays use the per-sample
 * engine's transposed layout (w1 element c * hidden + r is the weight
 * from input c to hidden unit r; w2 element r the weight from hidden
 * unit r to the output). For speed every array should start on a
 * 64-byte boundary: an element's kMlpLanes doubles are then one cache
 * line, and no AVX-512 load or store splits across two lines. The
 * bits never depend on alignment.
 */
struct MlpLaneStep
{
    std::size_t lanes;  ///< lanes to step, [1, kMlpLanes]
    std::size_t in;     ///< inputs per network
    std::size_t hidden; ///< hidden units per network
    double lr;          ///< learning rate of this epoch
    double momentum;    ///< momentum of the weight updates
    const double *x;    ///< [in] this step's input row of each lane
    const double *y;    ///< [1] each lane's target
    double *w1;         ///< [in * hidden] hidden-layer weights
    double *pw1;        ///< [in * hidden] their previous updates
    double *b1;         ///< [hidden] hidden biases
    double *pb1;        ///< [hidden] their previous updates
    double *w2;         ///< [hidden] output weights
    double *pw2;        ///< [hidden] their previous updates
    double *b2;         ///< [1] output bias
    double *pb2;        ///< [1] its previous update
    double *act;        ///< [hidden] scratch: hidden activations
    double *delta;      ///< [hidden] scratch: hidden deltas
    double *sse;        ///< [1] running squared error, += err * err
};

/**
 * The kernel table one tier implements. All pointers are non-null in
 * every published table; sizes follow BLAS conventions (row-major,
 * leading dimension in elements).
 */
struct KernelTable
{
    /** Tier name, e.g. "scalar". */
    const char *name;

    /** Canonical-reduction dot product sum_i a[i] * b[i]. */
    double (*dot)(const double *a, const double *b, std::size_t n);

    /** a[i] += factor * b[i] (elementwise, no reduction). */
    void (*axpy)(double *a, const double *b, double factor,
                 std::size_t n);

    /**
     * GEMM microkernel: one output-row panel update
     *     c[j] += sum over kk of a[kk] * b[kk * ldb + j]
     * accumulated k-ascending into c (elementwise in j, so any lane
     * width gives the same bits). Zero a[kk] panels are skipped, like
     * the blocked multiply always has.
     */
    void (*gemmMicro)(std::size_t k, std::size_t n, const double *a,
                      const double *b, std::size_t ldb, double *c);

    /** Canonical-reduction sum_i (a[i] - b[i])^2. */
    double (*squaredDistance)(const double *a, const double *b,
                              std::size_t n);

    /** Canonical-reduction sum_i (w[i] * (a[i]-b[i])) * (a[i]-b[i]). */
    double (*weightedSquaredDistance)(const double *a, const double *b,
                                      const double *w, std::size_t n);

    /** Canonical-reduction sum_i (a[i] - ca) * (b[i] - cb). */
    double (*centeredDot)(const double *a, const double *b, double ca,
                          double cb, std::size_t n);

    /**
     * MLP forward nets over the transposed ([input][unit]) layout:
     * a_out[r] = bias[r] + sum_c wt[c * out + r] * a_in[c]. For
     * out == 1 this is bias + canonical dot; for wider layers the
     * accumulation runs input-ascending per unit (elementwise across
     * units), identical in both tiers.
     */
    void (*mlpLayerNets)(std::size_t in, std::size_t out,
                         const double *wt, const double *bias,
                         const double *a_in, double *a_out);

    /**
     * MLP backward delta recurrence
     * d[j] = sum_k wt_next[j * width_next + k] * d_next[k]
     * (canonical dot per unit; elementwise product when the successor
     * layer has one unit).
     */
    void (*mlpLayerDeltas)(std::size_t width, std::size_t width_next,
                           const double *wt_next, const double *d_next,
                           double *d);

    /**
     * MLP momentum weight update over the transposed layout. Scales
     * d[r] by lr in place, then per weight
     *     dw = d[r] * in_act[c] + momentum * pwt[c * out + r]
     * and adds dw to the weight / stores it as the new previous
     * delta; biases likewise. Purely elementwise.
     */
    void (*mlpUpdateLayer)(std::size_t in, std::size_t out, double lr,
                           double momentum, const double *in_act,
                           double *d, double *wt, double *pwt,
                           double *bias, double *pb);

    /**
     * Whole-minibatch layer forward (a blocked GEMM): for every
     * sample s < bn, computes the row
     *     c[s * ldc + r] = bias[r] + sum over k of
     *                      a[s * lda + k] * wt[k * out + r]
     * with EXACTLY the arithmetic of mlpLayerNets on row s: bias
     * init, then input-ascending rank-1 adds (and the out == 1 case
     * is one canonical-reduction dot per sample, like the per-sample
     * engine's single-unit path). Each output element is a plain
     * sequential sum, elementwise across (s, r), so any lane width
     * lands on the same bits — and the minibatch forward is
     * bit-identical to running the per-sample forward row by row.
     * Vector tiers broadcast a[s][k] against contiguous rows of the
     * transposed ([input][unit]) weight panel and keep a register
     * accumulator per unit block across the whole input loop; the
     * in-kernel sample loop lets the pipeline overlap independent
     * samples' chains instead of paying an indirect call per sample.
     */
    void (*mlpBatchNets)(std::size_t bn, std::size_t in, std::size_t out,
                         const double *a, std::size_t lda,
                         const double *wt, const double *bias, double *c,
                         std::size_t ldc);

    /**
     * Batched gradient accumulation (a sum of rank-1 outer products):
     *     gw[r * in + c] = sum over s of d[s * ldd + r] * a[s * lda + c]
     * for r < out, c < in, OVERWRITING gw. Every element's sum starts
     * from 0.0 and adds its per-sample products in ascending s order —
     * plain sequential adds, elementwise across (r, c) — so any lane
     * width and any loop nesting lands on the same bits. Vector tiers
     * keep the accumulators in registers across the whole sample loop,
     * which is what makes the minibatch MLP gradient pass cheaper than
     * per-sample read-modify-write sweeps.
     */
    void (*mlpGradAccum)(std::size_t bn, std::size_t out, std::size_t in,
                         const double *d, std::size_t ldd,
                         const double *a, std::size_t lda, double *gw);

    /**
     * One per-sample backpropagation step of s.lanes independent
     * networks at once (see MlpLaneStep), the lane engine behind
     * ml::Mlp::fitLanes. Each lane performs exactly the per-sample
     * engine's operations, in its order, on its own operands:
     *   - hidden nets as mlpLayerNets: for one hidden unit, b1 +
     *     the canonical-reduction dot of w1 and x; for wider layers,
     *     bias first, then input-ascending adds of w1 * x;
     *   - sigmoid 1.0 / (1.0 + exp(-net)) with the project's exp
     *     (exp.h) at the tier's width: every lane has the W = 1 bits,
     *     which are those of the sigmoid kernel;
     *   - output: b2 + the canonical-reduction dot of w2 and the
     *     activations in its lane-parallel form (for fewer than 16
     *     hidden units, 0.0 + the sequential tail); linear output;
     *   - err = y - pred, sse += err * err;
     *   - hidden deltas (w2 * err) * (a * (1.0 - a)) from the
     *     pre-update w2 (mlpLayerDeltas then the sigmoid derivative);
     *   - both layers' momentum updates as mlpUpdateLayer: the deltas
     *     scaled by lr, then dw = d * in + momentum * prev per weight
     *     and db = d + momentum * prev per bias.
     * So lane l is bit-identical to the per-sample engine training
     * that network alone, in every tier: nothing sums across lanes
     * and every lane's arithmetic is the scalar expressions'. Lanes
     * at or past s.lanes may hold anything and are left unspecified.
     */
    void (*mlpLaneStep)(const MlpLaneStep &s);

    /**
     * a[i] = e^a[i], the project's exp (exp.h): glibc's FMA-built exp
     * reproduced bit for bit, with the same bits in every tier, on
     * every host and under any libm. Elementwise. Production code
     * calls simd::exp (one value) and the sigmoid kernel; this entry
     * is where the tests reach each tier's vector exp directly.
     */
    void (*exp)(std::size_t n, double *a);

    /**
     * a[i] = 1.0 / (1.0 + e^-a[i]) with exp's bits: the logistic
     * sigmoid of the MLP hidden units. Elementwise.
     */
    void (*sigmoid)(std::size_t n, double *a);

    /**
     * Masked canonical sum over valid i of a[i] (ragged score
     * matrices). `valid` is a packed little-endian bit vector: element
     * i is valid iff bit (i % 64) of valid[i / 64] is set. It runs the
     * SAME canonical lane-blocked reduction as a dense sum with each
     * invalid term replaced by a literal +0.0 (zero-substitution) —
     * never by skipping the add — so an all-set mask is bit-identical
     * to the unmasked sum by construction, in every tier, and a
     * NaN-poisoned masked cell cannot leak into the sum.
     */
    double (*maskedSum)(const double *a, const std::uint64_t *valid,
                        std::size_t n);
};

/** The portable one-lane tier. Always available. */
const KernelTable &scalarKernels();

/**
 * The AVX2 tier, or null when the binary was built without AVX2
 * support (non-x86 target or a compiler without -mavx2).
 */
const KernelTable *avx2Kernels();

/**
 * The AVX-512 tier, or null when the binary was built without AVX-512
 * support (non-x86 target or a compiler without -mavx512f). Uses only
 * the AVX512F subset so any avx512f CPU can run it.
 */
const KernelTable *avx512Kernels();

/** True when the running CPU reports AVX2 (cpuid). */
bool cpuSupportsAvx2();

/** True when the running CPU reports FMA3 (cpuid). */
bool cpuSupportsFma();

/** True when the running CPU reports AVX-512 Foundation (cpuid). */
bool cpuSupportsAvx512();

/**
 * True when both the binary and the running CPU provide `tier`: the
 * avx2 tier needs AVX2 and FMA, the avx512 tier AVX-512F (whose own
 * FMA instructions its exp uses). Scalar is always available.
 */
bool tierAvailable(Tier tier);

/**
 * Comma-separated feature flags of the running CPU relevant to the
 * kernel tiers (e.g. "sse2,avx,avx2,fma,avx512f"), for bench/JSON
 * context records.
 */
std::string cpuFeatureString();

/** "scalar", "avx2" or "avx512". */
const char *tierName(Tier tier);

/** Inverse of tierName. @throws util::InvalidArgument on anything else. */
Tier parseTier(const std::string &name);

/**
 * Pure tier-resolution rule (unit-testable): an override string (from
 * DTRANK_SIMD or --simd; null/empty/"auto" means no override) against
 * what the CPU and the binary provide. "auto" picks the widest
 * available tier (avx512 > avx2 > scalar). An unavailable avx512
 * request falls back to the widest remaining tier; an unavailable
 * avx2 request falls back to Scalar. The avx2 tier executes FMA
 * instructions, so it is available only when cpu_fma is set too. The
 * avx512 arguments default to "absent" and cpu_fma to "present" so the
 * three-argument truth table keeps its meaning.
 */
Tier resolveTier(const char *override_name, bool cpu_avx2,
                 bool avx2_compiled, bool cpu_avx512 = false,
                 bool avx512_compiled = false, bool cpu_fma = true);

/**
 * The active table. Resolved once on first use from DTRANK_SIMD and
 * cpuid; hot kernels go through one relaxed atomic load + indirect
 * call, which is noise next to the loops they run.
 */
const KernelTable &kernels();

/** The tier kernels() currently dispatches to. */
Tier activeTier();

/**
 * Strict override: selects `tier` for all subsequent kernels() calls.
 * @throws util::InvalidArgument when the tier is not available on this
 * CPU/binary. Call during startup, before worker threads exist.
 */
void setTier(Tier tier);

/**
 * Forgiving override for CLI/env plumbing: like setTier, but an
 * unavailable request logs a warning and selects Scalar.
 * @return the tier actually selected.
 */
Tier requestTier(Tier tier);

/**
 * Column-major "canonical-dot GEMM": with A stored feature-major (k
 * rows of m samples; element (sample i, feature kk) at
 * at[kk * lda + i]) and B row-major n x k (ldb), computes
 *
 *     ct[j * ldc + i] = bias[j] + dot(A column i, B row j, k)
 *
 * i.e. C^T = bias + B * A^T, stored output-major (one row of m samples
 * per output j — the layout the next layer reads as its A). Every
 * entry is ONE canonical-reduction dot product in its lane-parallel
 * form (see "Lane-parallel dots" above), so the result is
 * bit-identical to the naive per-entry `bias[j] + kt.dot(...)` loop in
 * every tier, at any tiling. This is the MLP's batched forward pass:
 * samples (target machines) are the vector lanes, so the benchmark x
 * machine layout the data already has is the input as is, and each
 * indirect call (kt.axpy) advances a whole tile of samples instead of
 * one (sample, unit) entry.
 */
void gemmDotColumns(const KernelTable &kt, std::size_t m, std::size_t n,
                    std::size_t k, const double *at, std::size_t lda,
                    const double *b, std::size_t ldb, const double *bias,
                    double *ct, std::size_t ldc);

// ---------------------------------------------------------------------
// Convenience dispatchers: the names consumers call.
// ---------------------------------------------------------------------

inline double
dot(const double *a, const double *b, std::size_t n)
{
    return kernels().dot(a, b, n);
}

inline void
axpy(double *a, const double *b, double factor, std::size_t n)
{
    kernels().axpy(a, b, factor, n);
}

inline void
gemmMicro(std::size_t k, std::size_t n, const double *a, const double *b,
          std::size_t ldb, double *c)
{
    kernels().gemmMicro(k, n, a, b, ldb, c);
}

inline void
mlpBatchNets(std::size_t bn, std::size_t in, std::size_t out,
             const double *a, std::size_t lda, const double *wt,
             const double *bias, double *c, std::size_t ldc)
{
    kernels().mlpBatchNets(bn, in, out, a, lda, wt, bias, c, ldc);
}

inline void
mlpGradAccum(std::size_t bn, std::size_t out, std::size_t in,
             const double *d, std::size_t ldd, const double *a,
             std::size_t lda, double *gw)
{
    kernels().mlpGradAccum(bn, out, in, d, ldd, a, lda, gw);
}

/**
 * e^x with the exp kernel's bits, which are the same in every tier:
 * the W = 1 body, without dispatch (kernels_scalar.cpp).
 */
double exp(double x);

inline void
sigmoid(std::size_t n, double *a)
{
    kernels().sigmoid(n, a);
}

inline double
squaredDistance(const double *a, const double *b, std::size_t n)
{
    return kernels().squaredDistance(a, b, n);
}

inline double
weightedSquaredDistance(const double *a, const double *b,
                        const double *w, std::size_t n)
{
    return kernels().weightedSquaredDistance(a, b, w, n);
}

inline double
centeredDot(const double *a, const double *b, double ca, double cb,
            std::size_t n)
{
    return kernels().centeredDot(a, b, ca, cb, n);
}

inline double
maskedSum(const double *a, const std::uint64_t *valid, std::size_t n)
{
    return kernels().maskedSum(a, valid, n);
}

} // namespace dtrank::simd
