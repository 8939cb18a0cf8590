#pragma once
// Runtime-dispatched SIMD kernel backends for the bubble-decoder hot
// path (§7's hardware discussion: wide-beam decoding must be as fast as
// the machine allows). One kernel contract, several implementations:
//
//   scalar  — portable C++, the retained reference implementation;
//   sse42   — x86 SSE4.2 intrinsics, 4 lanes (compile- and CPUID-gated);
//   avx2    — x86 AVX2 intrinsics, 8 lanes (compile- and CPUID-gated);
//   avx512  — x86 AVX-512F intrinsics, 16 lanes (compile- and
//             CPUID-gated; mask-register compares and compresses);
//   neon    — ARM NEON intrinsics, 4 lanes (compile-time gated; ASIMD is
//             architectural on aarch64, auxval-probed on 32-bit ARM).
//
// Every backend is *bit-identical* to the scalar kernels: the hash
// lanes are pure integer ops, and the float cost metrics keep the same
// expression shapes and the same per-lane reduction order (symbols
// accumulate sequentially per lane; lanes never sum across each other),
// compiled under the same -ffp-contract=off discipline. The PR 2 golden
// suite (test_decoder_golden) therefore acts as the conformance oracle
// for all of them, and test_backend checks the kernels pairwise.
//
// Table layout: the lane-independent primitives (hashes, the BSC
// expansion, GF(2) rows) sit in Backend itself; everything whose cost
// word depends on the path metric sits once per *cost lane* (F32Lane,
// U16Lane below) in Backend::f32 and Backend::u16 — the fused AWGN
// expansion and the search's prune, regroup and packed-key select
// kernels. Each such entry is one template over the lane traits,
// instantiated per lane (lane_kernels_t in expand.h).
//
// Selection: the best available backend is chosen at first use via
// CPUID (x86) / hwcaps (ARM). The SPINAL_BACKEND environment variable
// overrides it by name; an unknown name warns on stderr and falls back
// to the detected best. force() switches at runtime (tests, benches).
// Switching backends while another thread is decoding is a data race —
// pick the backend before spinning up decode threads.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "hash/spine_hash.h"

namespace spinal::backend {

/// Order-preserving float-to-integer map: monotone_key(a) < monotone_key(b)
/// iff a < b for all non-NaN floats (with -0 ordered just below +0, which
/// cannot matter here: candidate costs that tie at zero are both +0).
/// Lets the B-of-N selection run on flat uint64 (key << 32 | index) values
/// instead of an indirect float comparator — same (cost, index) order,
/// including the index tie-break, at a fraction of the compare cost.
inline std::uint32_t monotone_key(float f) noexcept {
  const std::uint32_t b = std::bit_cast<std::uint32_t>(f);
  return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
}

/// Exact inverse of monotone_key: the map is a bijection on bit
/// patterns, so a float cost round-trips through its packed selection
/// key bit-for-bit. The streaming pipeline uses this to recover kept
/// candidate costs from survivor keys instead of materializing a
/// full candidate-cost array.
inline float inverse_monotone_key(std::uint32_t m) noexcept {
  const std::uint32_t b = (m & 0x80000000u) ? (m & 0x7FFFFFFFu) : ~m;
  return std::bit_cast<float>(b);
}

/// Per-decode scratch the fused expansion kernels use, grown to steady
/// state by the *caller* before the kernel call (resize-only, so
/// repeated decodes stay allocation-free; owned by the decoder's
/// DecodeWorkspace). The kernels receive raw pointers — no std::vector
/// method is ever instantiated inside a SIMD-flagged translation unit,
/// which would risk a vague-linkage copy with wide instructions being
/// picked for baseline CPUs.
struct ExpandScratch {
  std::vector<std::uint32_t> rng_words;  ///< per-child RNG draw scratch
  std::vector<std::uint32_t> premix;     ///< per-child hash pre-mix / compacted RNG lanes
  std::vector<std::uint64_t> acc_bits;   ///< per-child coded-bit accumulator (BSC)
  std::vector<float> acc;                ///< per-child metric accumulator (streaming AWGN)
  std::vector<std::uint32_t> idx;        ///< partial-prune survivor child indices
  std::vector<std::uint32_t> acc_q;      ///< quantized per-child metric accumulator
};

/// Everything the fused AWGN expansion kernel needs for one spine level:
/// hash family, this level's received symbols (SoA slices), channel
/// mode, constellation tables, and caller-sized scratch (count * fanout
/// lanes each; premix_scratch may be null when the hash kind does not
/// factor or fewer than two symbols landed on the level).
struct AwgnLevel {
  hash::Kind kind;
  std::uint32_t salt;
  const std::uint32_t* ord;  ///< symbol ordinals, nsym entries
  std::uint32_t nsym;
  const float* y_re;
  const float* y_im;
  const float* h_re;  ///< CSI, valid when use_csi
  const float* h_im;
  bool use_csi;
  float fx_scale;  ///< > 0: Appendix-B fixed-point grid 2^frac_bits
  const float* table;      ///< constellation (pre-quantised in fx mode)
  const float* raw_table;  ///< unquantised (CSI path quantises after h·x)
  std::uint32_t mask;
  int cbits;
  std::uint32_t* rng_scratch;     ///< per-child RNG draws
  std::uint32_t* premix_scratch;  ///< shared pre-mix, or nullptr
  // The streaming awgn_expand_prune kernel additionally needs (both
  // may be null for plain awgn_expand_all calls):
  float* acc_scratch;          ///< per-child metric accumulator
  std::uint32_t* idx_scratch;  ///< partial-cost survivor child indices
};

/// Everything the *quantized* (u16/u8 grid, see spinal/cost_model.h)
/// AWGN expansion kernels need for one spine level. The channel metric
/// is fully pre-tabulated per dimension: qtab row s holds symbol s's
/// integer metric of the I coordinate (qre) and of the Q coordinate
/// (qim) for every c-bit constellation index, so a kernel's per-child
/// work per symbol is one RNG draw, two lookups and the clamped sum
///   min(qre[w & mask] + qim[(w >> c) & mask], cap),  mask = 2^c - 1.
/// Each dimension is clamped to cap before rounding (see
/// spinal/cost_model.h). A path cost is min(sum, 65535) everywhere —
/// exactly a u16 saturating-add chain, carried in u32 lanes so survivor
/// compaction reuses the u32 compress stores.
struct AwgnLevelQ {
  hash::Kind kind;
  std::uint32_t salt;
  const std::uint32_t* ord;  ///< symbol ordinals, nsym entries
  std::uint32_t nsym;
  const std::uint16_t* qtab;      ///< nsym rows of 2 << cbits u16 metrics, qre
                                  ///< then qim (256 B per row at c=6); the
                                  ///< table must carry one u16 of tail slack
                                  ///< for the 32-bit SIMD gather of the last
                                  ///< entry
  int cbits;                      ///< c: bits of the RNG word per dimension
  std::uint32_t cap;              ///< per-symbol clamp of qre + qim (<= 65535)
  const std::uint16_t* min_rest;  ///< nsym+1 suffix sums of per-row minima
                                  ///< (min_rest[s] = sat sum of rows >= s,
                                  ///< min_rest[nsym] = 0): admissible
                                  ///< remaining-symbol floors for pruning
  std::uint32_t* rng_scratch;     ///< per-child RNG draws
  std::uint32_t* premix_scratch;  ///< shared pre-mix, or nullptr
  std::uint32_t* acc_scratch;     ///< per-child quantized metric accumulator
  std::uint32_t* idx_scratch;     ///< partial-cost survivor child indices
};

/// The admissible cost floors a lane's partial-cost prune adds to a
/// parent cost (see LaneKernels::awgn_expand_prune): @p row, which
/// every child of the level costs at least, gates whole rows before any
/// hashing; @p rest, the floor of the symbols a partial cost has not
/// swept yet, tightens each lane's partial key. Only the quantized
/// metric tabulates them (AwgnLevelQ::min_rest[0] and [1]); the f32
/// lane's kernels never read them.
struct PruneFloors {
  std::uint32_t row = 0;
  std::uint32_t rest = 0;
};

/// Packs a quantized cost (<= 65535) and candidate index (< 65536 —
/// the quantized path requires B*2^k <= 65536) into the u32 selection
/// key of U16Lane.
/// Integer costs are their own monotone key, so unlike the f32 path
/// there is no bit trick to undo: cost = key >> 16, cand = key & 0xFFFF.
inline std::uint32_t quant_key(std::uint32_t cost, std::uint32_t cand) noexcept {
  return (cost << 16) | cand;
}

/// Saturating u16 add on u32 carriers: min(a + b, 65535). With
/// non-negative operands a chain of these equals min(plain sum, 65535),
/// so kernels may accumulate in plain u32 and clamp once at the end —
/// bit-identical to a per-step saturating u16 chain.
inline std::uint32_t quant_sat_add(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint32_t s = a + b;
  return s > 65535u ? 65535u : s;
}

/// One spine level of the BSC kernel: ordinals plus the received bits
/// packed 64 per word (bit j of word j/64), and caller-sized scratch.
struct BscLevel {
  hash::Kind kind;
  std::uint32_t salt;
  const std::uint32_t* ord;
  std::uint32_t nsym;
  const std::uint64_t* rx_words;
  std::uint32_t* rng_scratch;
  std::uint32_t* premix_scratch;  ///< shared pre-mix, or nullptr
  std::uint64_t* acc_scratch;     ///< packed coded-bit accumulator
};

// --- Cost lanes -------------------------------------------------------
// The bubble search (spinal/beam_search.h), the fused AWGN expansion
// and the prune/regroup kernels are one pipeline, instantiated once per
// path-metric width. A lane traits type carries every difference as a
// compile-time fact: the cost, accumulator and key words, the key
// pack/unpack, plain vs saturating add, per-level renormalization, the
// bound-refinement cadence, the per-level cost floor, and the AWGN
// level struct its expansion kernels read.

/// The f32 path metric (the golden reference): float costs and u64
/// keys monotone_key(cost) << 32 | candidate.
struct F32Lane {
  using cost_t = float;
  using acc_t = float;  ///< per-child metric accumulator word
  using key_t = std::uint64_t;
  using Level = AwgnLevel;  ///< the l2 float metric's level inputs
  static constexpr key_t kKeepAll = ~key_t{0};  ///< bound that prunes nothing
  static constexpr cost_t kWorst = std::numeric_limits<float>::infinity();
  /// Refine the bound once the survivor buffer holds kRefine * keep
  /// keys: rare enough to amortize the partition, frequent enough to
  /// keep the bound tracking the keep-th best.
  static constexpr int kRefine = 2;
  static constexpr bool kRenormalize = false;
  static constexpr bool kLevelFloor = false;

  static cost_t add(cost_t a, cost_t b) noexcept { return a + b; }
  static key_t key(cost_t cost, std::uint32_t cand) noexcept {
    return (static_cast<key_t>(monotone_key(cost)) << 32) | cand;
  }
  /// The monotone key is a bijection, so the cost comes back bit-for-bit.
  static cost_t cost_of(key_t key) noexcept {
    return inverse_monotone_key(static_cast<std::uint32_t>(key >> 32));
  }
  static std::uint32_t cand_of(key_t key) noexcept {
    return static_cast<std::uint32_t>(key);
  }
};

/// The quantized path metric (u16/u8 grid, spinal/cost_model.h): u16
/// saturating costs and u32 quant_key(cost, candidate) keys. Costs are
/// min(sum, 65535) everywhere and the kernels are pure integer, so
/// results are bit-identical across backends by construction.
struct U16Lane {
  using cost_t = std::uint16_t;
  /// Metrics accumulate unclamped in u32 and saturate once (see
  /// AwgnLevelQ), so survivor compaction reuses the u32 compress stores.
  using acc_t = std::uint32_t;
  using key_t = std::uint32_t;
  using Level = AwgnLevelQ;  ///< the pre-tabulated metric rows
  static constexpr key_t kKeepAll = ~key_t{0};
  static constexpr cost_t kWorst = 0xFFFF;
  /// Laxer than F32Lane: each refinement re-scans the kept prefix, and
  /// next to the cheap integer expand that re-scan costs more than the
  /// slightly looser bound gives back. Bound timing only moves work,
  /// never the kept set.
  static constexpr int kRefine = 3;
  /// Subtract each level's minimum kept cost from every survivor, so
  /// the u16 lanes carry a level's spread rather than the path sum.
  static constexpr bool kRenormalize = true;
  /// Every child of a leaf costs at least leaf + the level's summed
  /// per-symbol row minima, so sorted leaves cut off before hashing and
  /// the fused expansion's partial prune adds PruneFloors.
  static constexpr bool kLevelFloor = true;

  static std::uint32_t add(std::uint32_t a, std::uint32_t b) noexcept {
    return quant_sat_add(a, b);
  }
  static key_t key(std::uint32_t cost, std::uint32_t cand) noexcept {
    return quant_key(cost, cand);
  }
  static cost_t cost_of(key_t key) noexcept { return static_cast<cost_t>(key >> 16); }
  static std::uint32_t cand_of(key_t key) noexcept { return key & 0xFFFFu; }
};

/// The most uint32 lanes any backend's vector holds (AVX-512's 16).
/// Every SIMD backend TU static_asserts its lane width against it.
inline constexpr std::size_t kMaxLanes = 16;

/// Slots a survivor-key output needs past its worst-case append count:
/// SIMD backends compress-store whole vectors, so a vector with one
/// survivor may write kMaxLanes - 1 slots beyond it.
inline constexpr std::size_t kCompressSlack = kMaxLanes - 1;

/// One backend's cost-lane kernels for lane @p Lane: the fused AWGN
/// expansion and the search's streaming prune and regroup. The cost
/// arithmetic is Lane::add (float add, or u16 saturating add), so each
/// entry is the same contract in both lanes.
///
/// The one place the lanes do different work is the per-child branch
/// metric inside the two expansion entries: F32Lane runs the l2 float
/// chain against the constellation (with the CSI and Appendix-B
/// fixed-point modes), U16Lane adds two pre-tabulated per-dimension
/// integers per symbol (AwgnLevelQ) with u16-saturating costs. The quantized kernels
/// are pure integer, so bit-identical across backends by construction
/// (quantized vs f32 is gated statistically instead, see
/// spinal/cost_model.h).
template <class Lane>
struct LaneKernels {
  using cost_t = typename Lane::cost_t;
  using key_t = typename Lane::key_t;
  using Level = typename Lane::Level;

  /// Streaming fused d=1 finalize+prune over one child-major expansion
  /// block. For every candidate c = i*fanout + v of the block,
  ///   cost = Lane::add(parent_cost[i], child_cost[c])
  /// and the candidate is *discarded* — never written anywhere — when
  /// its full packed key exceeds bound_key, the running B-th-best
  /// *key* (cost word and candidate-index tie-break together) the
  /// search maintains — so even exact cost ties past the bound prune,
  /// which is where integer metrics put most of their candidates.
  /// Survivors append in candidate order:
  ///   out_keys[j] = Lane::key(cost, cand_base + c)
  /// so the survivor set is a filtered subset of the full key array and
  /// every downstream selection/tie-break is unchanged. Returns the
  /// number appended. Whole rows short-circuit on the parent cost
  /// (children cost at least the parent). Preconditions: child costs
  /// >= 0 (channel metrics are non-negative; pruning leans on cost
  /// monotonicity along paths) and no cost is -0.0f. Pass
  /// Lane::kKeepAll to keep everything. out_keys needs kCompressSlack
  /// slots past the worst-case append count: SIMD backends
  /// compress-store whole vectors.
  std::size_t (*d1_prune)(const cost_t* parent_cost, const cost_t* child_cost,
                          std::size_t count, std::uint32_t fanout,
                          std::uint32_t cand_base, key_t bound_key, key_t* out_keys);

  /// d>1 regroup, phase 1: per-leaf row minima folded with the parent
  /// cost, out[i] = Lane::add(leaf_cost[i], min_v child_cost[i*fanout + v]).
  /// Exact: min is order-free and both adds are monotone, so the value
  /// matches the running min over finalized child costs bit-for-bit.
  void (*row_mins)(const cost_t* leaf_cost, const cost_t* child_cost,
                   std::size_t leaves, std::uint32_t fanout, cost_t* out);

  /// d>1 regroup, phase 2: copies the *surviving* groups' child rows of
  /// one entry into the survivor arena — the vectorized replacement for
  /// the old scalar regroup scatter. Every child of leaf i belongs to
  /// group g = leaf_path[i] & group_mask (the chunk value at path slot
  /// 0), so rows move whole: for each leaf in order, when
  /// group_rowbase[g] >= 0 the row lands at the group's next free arena
  /// rows as
  ///   out_state[dst + v] = child_state[i*fanout + v]
  ///   out_cost[dst + v]  = Lane::add(leaf_cost[i], child_cost[i*fanout + v])
  ///   out_path[dst + v]  = (leaf_path[i] >> k) | v << (k*(d-2))
  /// reproducing the scalar fill order (leaf-major, children
  /// contiguous) exactly. group_rowbase[g] is the arena element offset
  /// of group g's candidate record, or -1 when the group was pruned
  /// (nothing of it is written at all).
  void (*regroup_emit)(const std::uint32_t* child_state, const cost_t* child_cost,
                       const cost_t* leaf_cost, const std::uint32_t* leaf_path,
                       std::size_t leaves, std::uint32_t fanout, int k, int d,
                       std::uint32_t group_mask, const std::int32_t* group_rowbase,
                       std::uint32_t* out_state, cost_t* out_cost,
                       std::uint32_t* out_path);

  /// Fused per-level expansion: children of the whole leaf array plus
  /// the accumulated channel metric per child. F32Lane: l2 against the
  /// constellation, with optional CSI and fixed-point quantisation.
  /// U16Lane: out_costs[c] = min(sum of per-symbol table metrics,
  /// 65535), and level.acc_scratch must be sized count*fanout. Both
  /// need level.rng_scratch sized count*fanout (and premix_scratch,
  /// when non-null, the shared one-at-a-time pre-mix).
  void (*awgn_expand_all)(const Level& level, const std::uint32_t* states,
                          std::size_t count, std::uint32_t fanout,
                          std::uint32_t* out_states, cost_t* out_costs);

  /// The streaming d=1 pipeline head: child hashing, RNG draws, the
  /// per-symbol metric sweeps AND the online prune fused into one
  /// kernel over a leaf block. After the first symbol's accumulation,
  /// children whose *partial* cost (parent + first-symbol metric;
  /// metrics only grow, so this is admissible) already exceeds
  /// bound_key leave the pipeline: the survivor lanes compress and the
  /// remaining nsym-1 hash+metric sweeps run over the compressed set
  /// only — losing children never get their costs finished, let alone
  /// written back. U16Lane sharpens both admissible bounds with its
  /// PruneFloors: whole rows skip *before any hashing* when
  /// Lane::key(parent + min_rest[0], 0) > bound_key, and each lane's
  /// partial cost adds min_rest[1]. Appends survivor keys exactly as
  /// d1_prune does (same packed contract, same kCompressSlack) and
  /// returns the count; all child states still land in out_states (the
  /// writeback reads kept states by candidate index). level.acc_scratch,
  /// level.idx_scratch, level.rng_scratch and level.premix_scratch must
  /// all be non-null and sized count*fanout. Bit-identity: each
  /// surviving child's metric accumulates in the same per-lane order as
  /// awgn_expand_all, so results equal awgn_expand_all + d1_prune
  /// exactly (test_backend pins this). Pass Lane::kKeepAll to keep
  /// everything.
  std::size_t (*awgn_expand_prune)(const Level& level, const std::uint32_t* states,
                                   const cost_t* parent_cost, std::size_t count,
                                   std::uint32_t fanout, std::uint32_t cand_base,
                                   key_t bound_key, std::uint32_t* out_states,
                                   key_t* out_keys);

  // --- Packed-key B-of-N selection ---
  // Lane::key orders exactly like the (cost, candidate index)
  // comparator, and keys are unique, so the kept *set* of a select is
  // nth_element's and its order a full sort's: the arena layout and
  // every equal-cost tie-break downstream come out identically on every
  // stdlib and backend, even where the bodies differ. The scalar
  // backend runs a range-adaptive bucket partition and bucket sort
  // (scalar_kernels.h); the SIMD backends run a sampled vector
  // threshold and a sorting network (simd_select.h), and fall back to
  // the scalar bodies for small keeps (B <= 4) and short blocks. No
  // entry allocates: all scratch lives on the stack.

  /// The streaming search's mid-level bound refinement. Needs keep <
  /// count (otherwise it returns count and touches nothing). Returns m
  /// and sets *bound to a key b such that keys[0, m) holds exactly the
  /// keys of keys[0, count) that are <= b, in unspecified order, and m
  /// >= keep — so b is admissible: at least keep keys sit at or below
  /// it. The bound need not be the keep-th key (the scalar body's is;
  /// a SIMD body's is a sampled pivot a little above it), so m may
  /// differ per backend; the final select is exact, so the kept set
  /// never does. Writes nothing at or past keys + count.
  std::size_t (*tighten)(key_t* keys, std::size_t count, std::size_t keep, key_t* bound);

  /// Reorders keys so the min(keep, count) smallest occupy the front in
  /// ascending order (the kept *set* and its *order* are deterministic;
  /// the keys past them are unspecified). With keep >= count that is a
  /// full sort. Writes nothing at or past keys + count.
  void (*select)(key_t* keys, std::size_t count, std::size_t keep);
};

/// The kernel table: one entry per hot-path primitive. All function
/// pointers are always non-null. Results are bit-identical across
/// backends (the contract test_backend/test_decoder_golden enforce).
struct Backend {
  const char* name;  ///< registry key: "scalar", "sse42", "avx2", "avx512", "neon"
  int lanes;         ///< uint32 lanes per vector (1 for scalar)

  /// out[i] = h(states[i], data), the batched spine hash.
  void (*hash_n)(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                 std::size_t count, std::uint32_t data, std::uint32_t* out);

  /// out[i*fanout + v] = h(states[i], v) for v < fanout, child-major:
  /// a leaf's children are contiguous, so at bubble depth d=1 the
  /// kernel output *is* the candidate order (cand = leaf*fanout + v)
  /// and the search needs no scatter at all. The one-at-a-time state
  /// pre-mix is still shared across the fanout.
  void (*hash_children)(hash::Kind kind, std::uint32_t salt, const std::uint32_t* states,
                        std::size_t count, std::uint32_t fanout, std::uint32_t* out);

  /// One-at-a-time state pre-mix (kind-specific: only valid for the
  /// factoring kind, see SpineHash::has_premix).
  void (*premix_n)(std::uint32_t salt, const std::uint32_t* states, std::size_t count,
                   std::uint32_t* out);

  /// Finishes h for lanes pre-mixed by premix_n.
  void (*hash_premixed_n)(const std::uint32_t* premixed, std::size_t count,
                          std::uint32_t data, std::uint32_t* out);

  /// Fused per-level expansion, BSC Hamming metric (XOR + popcount over
  /// 64-symbol packed blocks).
  void (*bsc_expand_all)(const BscLevel& level, const std::uint32_t* states,
                         std::size_t count, std::uint32_t fanout,
                         std::uint32_t* out_states, float* out_costs);

  /// GF(2) dense row combine: dst[w] ^= src[w] for w < words. The
  /// kernel table's first non-spinal client — Raptor's LT + LDGM
  /// precode row operations accumulate packed parity rows through it.
  /// dst and src must not overlap. Pure integer XOR, so every backend
  /// is trivially bit-identical.
  void (*xor_rows)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words);

  /// The fused AWGN expansion and the search's prune and regroup
  /// kernels, once per cost lane: each backend fills both from one set
  /// of lane templates (lane_kernels_t in expand.h).
  LaneKernels<F32Lane> f32;
  LaneKernels<U16Lane> u16;

  /// The kernel table of cost lane @p Lane.
  template <class Lane>
  const LaneKernels<Lane>& lane() const noexcept {
    if constexpr (std::is_same_v<Lane, F32Lane>)
      return f32;
    else
      return u16;
  }
};

/// keys[i] = monotone_key(costs[i]) << 32 | i — the F32Lane keys of a
/// whole cost array.
void build_keys(const float* costs, std::size_t count, std::uint64_t* keys);

/// Backends compiled in *and* supported by this CPU, detection order
/// (scalar first, widest last). Never empty: scalar is always present.
const std::vector<const Backend*>& available() noexcept;

/// The backend every decode routes through. First call resolves the
/// SPINAL_BACKEND override (unknown names warn on stderr) and otherwise
/// picks the last — widest — entry of available().
const Backend& active() noexcept;

/// Looks a backend up by registry name; nullptr when absent.
const Backend* find(std::string_view name) noexcept;

/// Switches active() to the named backend. Returns false (and leaves
/// the active backend unchanged) when the name is not in available().
bool force(std::string_view name) noexcept;

/// The pure resolution rule behind active()'s first call, exposed for
/// tests: empty/unset requests the detected best; an unknown name sets
/// *warned, prints the available-backend list to stderr (so a typo'd
/// SPINAL_BACKEND tells the user what the valid names are) and falls
/// back to the best. Does not touch active().
const Backend* resolve(std::string_view env_value, bool* warned) noexcept;

/// Space-separated names of every available backend, in detection
/// order — the list resolve() prints on an unknown name.
std::string available_names();

}  // namespace spinal::backend
