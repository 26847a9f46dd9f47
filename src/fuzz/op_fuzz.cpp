#include "fuzz/op_fuzz.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "fme/fme.h"
#include "fme/linear.h"
#include "interval/interval.h"
#include "interval/interval_ops.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"
#include "util/assert.h"

namespace rtlsat::fuzz {

using iops::Pair;
using V = Interval::Value;
using W = __int128;

namespace {

// Stop appending (but keep counting checks) once this many violations have
// been collected — one broken rule fails millions of contracts.
constexpr std::size_t kMaxViolations = 64;

struct Ctx {
  std::vector<std::string> violations;
  std::int64_t checks = 0;

  // `detail` is a callable so the description string is only materialized
  // on failure — the exhaustive loops run hundreds of millions of checks.
  template <typename F>
  void require(bool ok, const char* rule, F&& detail) {
    ++checks;
    if (ok || violations.size() >= kMaxViolations) return;
    violations.push_back(std::string(rule) + ": " + detail());
  }
};

std::string describe(const Interval& a) { return a.to_string(); }

template <typename... Rest>
std::string describe(const Interval& a, const Rest&... rest) {
  return a.to_string() + " " + describe(rest...);
}

// "result must contain v" with the saturation-rail reading: a rail endpoint
// means unbounded on that side, so any true value beyond it is admitted.
bool contains_sat(const Interval& r, W v) {
  if (r.is_empty()) return false;
  const bool lo_ok = r.lo() == kSatMin || static_cast<W>(r.lo()) <= v;
  const bool hi_ok = r.hi() == kSatMax || v <= static_cast<W>(r.hi());
  return lo_ok && hi_ok;
}

// Every nonempty sub-interval of [lo, hi].
std::vector<Interval> intervals_in(V lo, V hi) {
  std::vector<Interval> out;
  for (V a = lo; a <= hi; ++a)
    for (V b = a; b <= hi; ++b) out.emplace_back(a, b);
  return out;
}

V mod_floor(V a, V m) {
  V r = a % m;
  if (r < 0) r += m;
  return r;
}

// ------------------------------------------------ exhaustive small widths

// Forward unary and parameterized rules: one concrete operand at a time.
void exhaustive_unary(int width, Ctx& ctx) {
  const V n = V{1} << width;
  const V top = n - 1;
  // Signed universe exercises the negative branches of mod/neg/mul.
  const std::vector<Interval> signed_ivals = intervals_in(-n, top);
  const std::vector<Interval> unsigned_ivals = intervals_in(0, top);

  for (const Interval& x : signed_ivals) {
    const auto dx = [&] { return describe(x); };
    const Interval neg = iops::fwd_neg(x);
    const Interval bneg = iops::back_neg(x);
    for (V v = x.lo(); v <= x.hi(); ++v) {
      ctx.require(neg.contains(-v), "fwd_neg", dx);
      ctx.require(bneg.contains(-v), "back_neg", dx);
    }
    for (V k = -3; k <= 3; ++k) {
      const auto dk = [&] { return describe(x) + " k=" + std::to_string(k); };
      const Interval prod = iops::fwd_mul_const(x, k);
      for (V v = x.lo(); v <= x.hi(); ++v)
        ctx.require(prod.contains(k * v), "fwd_mul_const", dk);
      if (k != 0) {
        const Interval pre = iops::back_mul_const(x, k);
        for (V v = -n; v <= top; ++v)
          if (x.contains(k * v))
            ctx.require(pre.contains(v), "back_mul_const", dk);
      }
    }
    for (V m = 1; m <= n; ++m) {
      const auto dm = [&] { return describe(x) + " m=" + std::to_string(m); };
      const Interval mod = iops::fwd_mod(x, m);
      for (V v = x.lo(); v <= x.hi(); ++v)
        ctx.require(mod.contains(mod_floor(v, m)), "fwd_mod", dm);
    }
  }

  for (const Interval& x : unsigned_ivals) {
    const auto dx = [&] { return describe(x); };
    const Interval not_f = iops::fwd_not(x, width);
    const Interval not_b = iops::back_not(x, width);
    for (V v = x.lo(); v <= x.hi(); ++v)
      ctx.require(not_f.contains(top - v), "fwd_not", dx);
    for (V v = 0; v <= top; ++v)
      if (x.contains(top - v)) ctx.require(not_b.contains(v), "back_not", dx);

    for (int k = 0; k <= width; ++k) {
      const auto dk = [&] { return describe(x) + " k=" + std::to_string(k); };
      const Interval shr = iops::fwd_lshr(x, k);
      const Interval shr_b = iops::back_lshr(x, k);
      for (V v = x.lo(); v <= x.hi(); ++v)
        ctx.require(shr.contains(v >> k), "fwd_lshr", dk);
      for (V v = 0; v <= top; ++v)
        if (x.contains(v >> k)) ctx.require(shr_b.contains(v), "back_lshr", dk);
    }
    for (int k = 0; k < width; ++k) {
      const auto dk = [&] { return describe(x) + " k=" + std::to_string(k); };
      const Interval shl = iops::fwd_shl(x, k, width);
      for (V v = x.lo(); v <= x.hi(); ++v)
        ctx.require(shl.contains((v << k) & top), "fwd_shl", dk);
    }
    // Extract fields and their inversion.
    for (int lo_bit = 0; lo_bit < width; ++lo_bit) {
      for (int hi_bit = lo_bit; hi_bit < width; ++hi_bit) {
        const auto dbits = [&] {
          return describe(x) + " bits " + std::to_string(hi_bit) + ":" +
                 std::to_string(lo_bit);
        };
        const V span = V{1} << (hi_bit - lo_bit + 1);
        const Interval field = iops::fwd_extract(x, hi_bit, lo_bit);
        for (V v = x.lo(); v <= x.hi(); ++v)
          ctx.require(field.contains((v >> lo_bit) % span), "fwd_extract",
                      dbits);
        for (const Interval& z : intervals_in(0, span - 1)) {
          const Interval narrowed = iops::back_extract(z, x, hi_bit, lo_bit);
          for (V v = x.lo(); v <= x.hi(); ++v)
            if (z.contains((v >> lo_bit) % span))
              ctx.require(narrowed.contains(v), "back_extract", [&] {
                return describe(z, x) + "bits " + std::to_string(hi_bit) +
                       ":" + std::to_string(lo_bit);
              });
        }
      }
    }
  }
}

// Forward + narrow rules over every interval pair of the width.
void exhaustive_pairs(int width, Ctx& ctx) {
  const V n = V{1} << width;
  const V top = n - 1;
  const std::vector<Interval> ivals = intervals_in(0, top);

  for (const Interval& x : ivals) {
    for (const Interval& y : ivals) {
      const auto d = [&] { return describe(x, y); };
      const Interval add = iops::fwd_add(x, y);
      const Interval sub = iops::fwd_sub(x, y);
      const Interval mn = iops::fwd_min(x, y);
      const Interval mx = iops::fwd_max(x, y);
      const Interval addw = iops::fwd_add_wrap(x, y, width);
      const Interval subw = iops::fwd_sub_wrap(x, y, width);
      const Interval eq = iops::fwd_eq(x, y);
      const Interval lt = iops::fwd_lt(x, y);
      const Interval le = iops::fwd_le(x, y);
      const Pair nlt = iops::narrow_lt(x, y);
      const Pair nle = iops::narrow_le(x, y);
      const Pair neq = iops::narrow_eq(x, y);
      const Pair nne = iops::narrow_ne(x, y);
      for (V a = x.lo(); a <= x.hi(); ++a) {
        for (V b = y.lo(); b <= y.hi(); ++b) {
          ctx.require(add.contains(a + b), "fwd_add", d);
          ctx.require(sub.contains(a - b), "fwd_sub", d);
          ctx.require(mn.contains(std::min(a, b)), "fwd_min", d);
          ctx.require(mx.contains(std::max(a, b)), "fwd_max", d);
          ctx.require(addw.contains((a + b) & top), "fwd_add_wrap", d);
          ctx.require(subw.contains(mod_floor(a - b, n)), "fwd_sub_wrap", d);
          ctx.require(eq.contains(a == b ? 1 : 0), "fwd_eq", d);
          ctx.require(lt.contains(a < b ? 1 : 0), "fwd_lt", d);
          ctx.require(le.contains(a <= b ? 1 : 0), "fwd_le", d);
          if (a < b)
            ctx.require(nlt.x.contains(a) && nlt.y.contains(b), "narrow_lt", d);
          if (a <= b)
            ctx.require(nle.x.contains(a) && nle.y.contains(b), "narrow_le", d);
          if (a == b)
            ctx.require(neq.x.contains(a) && neq.y.contains(b), "narrow_eq", d);
          if (a != b)
            ctx.require(nne.x.contains(a) && nne.y.contains(b), "narrow_ne", d);
        }
      }
    }
  }
}

// Backward rules with a (Z, other-operand) shape: the narrowed operand runs
// over the width universe.
void exhaustive_back_pairs(int width, Ctx& ctx) {
  const V n = V{1} << width;
  const V top = n - 1;
  const std::vector<Interval> ivals = intervals_in(0, top);
  const Interval full(0, top);

  for (const Interval& z : ivals) {
    for (const Interval& other : ivals) {
      const auto d = [&] { return describe(z, other); };
      const Interval bax = iops::back_add_x(z, other);
      const Interval bsx = iops::back_sub_x(z, other);
      const Interval bsy = iops::back_sub_y(z, other);
      // The 3-interval wrap/min/max rules run with x_cur = full width here;
      // exhaustive_back_triples covers proper sub-interval x_cur at the
      // widths where that is affordable.
      const Interval bawx = iops::back_add_wrap_x(z, other, full, width);
      const Interval bswx = iops::back_sub_wrap_x(z, other, full, width);
      const Interval bswy = iops::back_sub_wrap_y(z, other, full, width);
      const Interval bmin = iops::back_min_x(z, other, full);
      const Interval bmax = iops::back_max_x(z, other, full);
      for (V v = 0; v <= top; ++v) {
        for (V o = other.lo(); o <= other.hi(); ++o) {
          if (z.contains(v + o)) ctx.require(bax.contains(v), "back_add_x", d);
          if (z.contains(v - o)) ctx.require(bsx.contains(v), "back_sub_x", d);
          // back_sub_y: z = x − y narrows y; here v plays y, o plays x.
          if (z.contains(o - v)) ctx.require(bsy.contains(v), "back_sub_y", d);
          if (z.contains((v + o) & top))
            ctx.require(bawx.contains(v), "back_add_wrap_x", d);
          if (z.contains(mod_floor(v - o, n)))
            ctx.require(bswx.contains(v), "back_sub_wrap_x", d);
          if (z.contains(mod_floor(o - v, n)))
            ctx.require(bswy.contains(v), "back_sub_wrap_y", d);
          if (z.contains(std::min(v, o)))
            ctx.require(bmin.contains(v), "back_min_x", d);
          if (z.contains(std::max(v, o)))
            ctx.require(bmax.contains(v), "back_max_x", d);
        }
      }
    }
  }
}

// Full 3-interval enumeration of the x_cur-carrying backward rules.
// O(intervals³ · n²): affordable only at the smallest widths.
void exhaustive_back_triples(int width, Ctx& ctx) {
  const V n = V{1} << width;
  const V top = n - 1;
  const std::vector<Interval> ivals = intervals_in(0, top);

  for (const Interval& z : ivals) {
    for (const Interval& other : ivals) {
      for (const Interval& cur : ivals) {
        const auto d = [&] { return describe(z, other, cur); };
        const Interval bawx = iops::back_add_wrap_x(z, other, cur, width);
        const Interval bswx = iops::back_sub_wrap_x(z, other, cur, width);
        const Interval bswy = iops::back_sub_wrap_y(z, other, cur, width);
        const Interval bmin = iops::back_min_x(z, other, cur);
        const Interval bmax = iops::back_max_x(z, other, cur);
        for (V v = cur.lo(); v <= cur.hi(); ++v) {
          for (V o = other.lo(); o <= other.hi(); ++o) {
            if (z.contains((v + o) & top))
              ctx.require(bawx.contains(v), "back_add_wrap_x/cur", d);
            if (z.contains(mod_floor(v - o, n)))
              ctx.require(bswx.contains(v), "back_sub_wrap_x/cur", d);
            if (z.contains(mod_floor(o - v, n)))
              ctx.require(bswy.contains(v), "back_sub_wrap_y/cur", d);
            if (z.contains(std::min(v, o)))
              ctx.require(bmin.contains(v), "back_min_x/cur", d);
            if (z.contains(std::max(v, o)))
              ctx.require(bmax.contains(v), "back_max_x/cur", d);
          }
        }
      }
    }
  }
}

// Concat across every split of `width` into hi/lo parts.
void exhaustive_concat(int width, Ctx& ctx) {
  for (int low_width = 1; low_width < width; ++low_width) {
    const int hi_width = width - low_width;
    const V lo_n = V{1} << low_width;
    const V hi_n = V{1} << hi_width;
    const std::vector<Interval> hi_ivals = intervals_in(0, hi_n - 1);
    const std::vector<Interval> lo_ivals = intervals_in(0, lo_n - 1);
    const std::vector<Interval> z_ivals = intervals_in(0, (V{1} << width) - 1);

    for (const Interval& h : hi_ivals) {
      for (const Interval& l : lo_ivals) {
        const auto d = [&] {
          return describe(h, l) + "lw=" + std::to_string(low_width);
        };
        const Interval cat = iops::fwd_concat(h, l, low_width);
        for (V a = h.lo(); a <= h.hi(); ++a)
          for (V b = l.lo(); b <= l.hi(); ++b)
            ctx.require(cat.contains(a * lo_n + b), "fwd_concat", d);
      }
    }
    for (const Interval& z : z_ivals) {
      const auto dz = [&] {
        return describe(z) + " lw=" + std::to_string(low_width);
      };
      const Interval bh = iops::back_concat_hi(z, low_width);
      for (V a = 0; a < hi_n; ++a)
        for (V b = 0; b < lo_n; ++b)
          if (z.contains(a * lo_n + b))
            ctx.require(bh.contains(a), "back_concat_hi", dz);
      for (const Interval& h : hi_ivals) {
        const Interval bl =
            iops::back_concat_lo(z, h, Interval(0, lo_n - 1), low_width);
        for (V a = h.lo(); a <= h.hi(); ++a)
          for (V b = 0; b < lo_n; ++b)
            if (z.contains(a * lo_n + b))
              ctx.require(bl.contains(b), "back_concat_lo", [&] {
                return describe(z, h) + "lw=" + std::to_string(low_width);
              });
      }
    }
  }
}

// --------------------------------------------------------- randomized int64

V rand_endpoint(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return 0;
    case 1: return rng.range(-8, 8);
    case 2: return (V{1} << rng.below(61)) + rng.range(-2, 2);
    case 3: return -(V{1} << rng.below(61)) + rng.range(-2, 2);
    case 4: return kSatMax - static_cast<V>(rng.below(3));
    case 5: return kSatMin + static_cast<V>(rng.below(3));
    case 6: return static_cast<V>(rng.next() >> 2) * (rng.flip() ? 1 : -1);
    default: return rng.range(0, V{1} << 20);
  }
}

Interval rand_interval(Rng& rng) {
  V a = rand_endpoint(rng);
  V b = rng.chance(1, 4) ? a : rand_endpoint(rng);
  if (a > b) std::swap(a, b);
  return Interval(a, b);
}

// A concrete member of a (possibly astronomically wide) interval.
V sample(Rng& rng, const Interval& x) {
  switch (rng.below(4)) {
    case 0: return x.lo();
    case 1: return x.hi();
    default: {
      // Span in uint64 wraps correctly even for ⟨kSatMin, kSatMax⟩.
      const std::uint64_t span =
          static_cast<std::uint64_t>(x.hi()) - static_cast<std::uint64_t>(x.lo());
      if (span == 0 || span == ~std::uint64_t{0}) return rng.flip() ? x.lo() : x.hi();
      return static_cast<V>(static_cast<std::uint64_t>(x.lo()) +
                            rng.next() % (span + 1));
    }
  }
}

// Widen an interval around a point so it still contains it.
Interval around(Rng& rng, V v) {
  const V lo = rng.chance(1, 3) ? v : sat_sub(v, rng.range(0, 1 << 16));
  const V hi = rng.chance(1, 3) ? v : sat_add(v, rng.range(0, 1 << 16));
  return Interval(lo, hi);
}

}  // namespace

std::vector<std::string> exhaustive_interval_check(int width,
                                                   std::int64_t* checks) {
  RTLSAT_ASSERT(width >= 1 && width <= 6);
  Ctx ctx;
  exhaustive_unary(width, ctx);
  exhaustive_pairs(width, ctx);
  exhaustive_back_pairs(width, ctx);
  if (width <= 3) exhaustive_back_triples(width, ctx);
  exhaustive_concat(width, ctx);
  if (checks != nullptr) *checks = ctx.checks;
  return std::move(ctx.violations);
}

std::vector<std::string> fuzz_interval_ops(Rng& rng, int iterations) {
  Ctx ctx;
  for (int i = 0; i < iterations; ++i) {
    const Interval x = rand_interval(rng);
    const Interval y = rand_interval(rng);
    const V a = sample(rng, x);
    const V b = sample(rng, y);
    const W wa = a, wb = b;
    const auto dxy = [&] {
      return describe(x, y) + std::to_string(a) + "," + std::to_string(b);
    };
    const auto dx = [&] { return describe(x) + " x=" + std::to_string(a); };

    ctx.require(contains_sat(iops::fwd_add(x, y), wa + wb), "fwd_add", dxy);
    ctx.require(contains_sat(iops::fwd_sub(x, y), wa - wb), "fwd_sub", dxy);
    ctx.require(contains_sat(iops::fwd_neg(x), -wa), "fwd_neg", dx);
    ctx.require(contains_sat(iops::fwd_min(x, y), std::min(wa, wb)),
                "fwd_min", dxy);
    ctx.require(contains_sat(iops::fwd_max(x, y), std::max(wa, wb)),
                "fwd_max", dxy);
    {
      const V k = rng.range(-6, 6);
      ctx.require(contains_sat(iops::fwd_mul_const(x, k), wa * k),
                  "fwd_mul_const",
                  [&] { return dx() + " k=" + std::to_string(k); });
    }
    {
      const V m = rng.flip() ? (V{1} << (1 + rng.below(60)))
                             : rng.range(1, V{1} << 50);
      W r = wa % m;
      if (r < 0) r += m;
      ctx.require(contains_sat(iops::fwd_mod(x, m), r), "fwd_mod",
                  [&] { return dx() + " m=" + std::to_string(m); });
    }
    {
      // Width-scale shl/extract/concat with in-width operands.
      const int w = 1 + static_cast<int>(rng.below(60));
      const V top = (V{1} << w) - 1;
      const Interval xw = x.intersect(Interval(0, top));
      if (!xw.is_empty()) {
        const V v = sample(rng, xw);
        const int k = static_cast<int>(rng.below(static_cast<std::uint64_t>(w)));
        const auto dw = [&] {
          return describe(xw) + " k=" + std::to_string(k) + " w=" +
                 std::to_string(w) + " x=" + std::to_string(v);
        };
        ctx.require(contains_sat(iops::fwd_shl(xw, k, w),
                                 static_cast<V>((static_cast<W>(v) << k) &
                                                static_cast<W>(top))),
                    "fwd_shl", dw);
        const int lo_bit =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(w)));
        const int hi_bit =
            lo_bit +
            static_cast<int>(rng.below(static_cast<std::uint64_t>(w - lo_bit)));
        const V span = V{1} << (hi_bit - lo_bit + 1);
        const V field_v = (v >> lo_bit) % span;
        const auto dex = [&] {
          return describe(xw) + " " + std::to_string(hi_bit) + ":" +
                 std::to_string(lo_bit) + " x=" + std::to_string(v);
        };
        ctx.require(contains_sat(iops::fwd_extract(xw, hi_bit, lo_bit), field_v),
                    "fwd_extract", dex);
        const Interval z =
            around(rng, field_v).intersect(Interval(0, span - 1));
        if (z.contains(field_v)) {
          const Interval nx = iops::back_extract(z, xw, hi_bit, lo_bit);
          ctx.require(nx.contains(v), "back_extract",
                      [&] { return describe(z) + " " + dex(); });
        }
      }
      if (w >= 2) {
        const int lw =
            1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(w - 1)));
        const Interval hi_p = x.intersect(Interval(0, (V{1} << (w - lw)) - 1));
        const Interval lo_p = y.intersect(Interval(0, (V{1} << lw) - 1));
        if (!hi_p.is_empty() && !lo_p.is_empty()) {
          const V hv = sample(rng, hi_p);
          const V lv = sample(rng, lo_p);
          ctx.require(contains_sat(iops::fwd_concat(hi_p, lo_p, lw),
                                   (static_cast<W>(hv) << lw) + lv),
                      "fwd_concat", [&] { return describe(hi_p, lo_p); });
        }
      }
    }
    // Backward rules seeded from a concrete (x, y, z) triple. The premise
    // "op(x, y) ∈ Z" must use the *exact* result: when the true value
    // overflows int64 the saturating layer is allowed to lose it (rails are
    // surrogates, not values — the solver never feeds it out-of-range
    // operands; widths cap at 60 bits). So overflowing samples are skipped.
    {
      if (static_cast<W>(sat_add(a, b)) == wa + wb) {
        const Interval z_add = around(rng, sat_add(a, b));
        ctx.require(contains_sat(iops::back_add_x(z_add, y), wa),
                    "back_add_x", [&] { return describe(z_add, y) + dxy(); });
      }
      if (static_cast<W>(sat_sub(a, b)) == wa - wb) {
        const Interval z_sub = around(rng, sat_sub(a, b));
        ctx.require(contains_sat(iops::back_sub_x(z_sub, y), wa),
                    "back_sub_x", [&] { return describe(z_sub, y) + dxy(); });
        ctx.require(contains_sat(iops::back_sub_y(z_sub, x), wb),
                    "back_sub_y", [&] { return describe(z_sub, x) + dxy(); });
      }
    }
    // Comparator narrowings on the sampled concrete pair.
    {
      const Pair nlt = iops::narrow_lt(x, y);
      const Pair nle = iops::narrow_le(x, y);
      const Pair neq = iops::narrow_eq(x, y);
      const Pair nne = iops::narrow_ne(x, y);
      if (a < b)
        ctx.require(nlt.x.contains(a) && nlt.y.contains(b), "narrow_lt", dxy);
      if (a <= b)
        ctx.require(nle.x.contains(a) && nle.y.contains(b), "narrow_le", dxy);
      if (a == b)
        ctx.require(neq.x.contains(a) && neq.y.contains(b), "narrow_eq", dxy);
      if (a != b)
        ctx.require(nne.x.contains(a) && nne.y.contains(b), "narrow_ne", dxy);
    }
  }
  return std::move(ctx.violations);
}

std::vector<std::string> fuzz_fme(Rng& rng, int iterations) {
  Ctx ctx;
  for (int i = 0; i < iterations; ++i) {
    fme::System system;
    const int nv = 1 + static_cast<int>(rng.below(4));
    std::vector<std::int64_t> anchor;  // a random in-box point
    for (int v = 0; v < nv; ++v) {
      const std::int64_t lo = rng.range(-4, 4);
      const std::int64_t hi = lo + rng.range(0, 8);
      system.add_var(Interval(lo, hi));
      anchor.push_back(rng.range(lo, hi));
    }
    const int nc = 1 + static_cast<int>(rng.below(6));
    for (int c = 0; c < nc; ++c) {
      std::vector<fme::Term> terms;
      std::int64_t at_anchor = 0;
      for (int v = 0; v < nv; ++v) {
        if (nv > 1 && rng.chance(1, 3)) continue;
        const std::int64_t coeff =
            rng.flip() ? rng.range(1, 3) : rng.range(-3, -1);
        terms.push_back({static_cast<fme::Var>(v), coeff});
        at_anchor += coeff * anchor[static_cast<std::size_t>(v)];
      }
      if (terms.empty()) continue;
      // Half the constraints are satisfiable-by-construction (bound set
      // from the anchor point), half arbitrary — that mix yields a healthy
      // SAT/UNSAT balance instead of near-certain UNSAT.
      const std::int64_t bound =
          rng.flip() ? at_anchor + rng.range(0, 4) : rng.range(-10, 10);
      if (rng.chance(1, 5)) {
        system.add_eq(std::move(terms), bound);
      } else {
        system.add_le(std::move(terms), bound);
      }
    }

    // Ground truth: enumerate the variable box.
    bool truth_sat = false;
    {
      std::vector<std::int64_t> point;
      for (int v = 0; v < nv; ++v)
        point.push_back(system.bounds(static_cast<fme::Var>(v)).lo());
      for (;;) {
        bool all = true;
        for (const fme::LinearConstraint& c : system.constraints())
          all = all && fme::satisfied(c, point);
        if (all) {
          truth_sat = true;
          break;
        }
        int v = 0;
        for (; v < nv; ++v) {
          if (point[static_cast<std::size_t>(v)] <
              system.bounds(static_cast<fme::Var>(v)).hi()) {
            ++point[static_cast<std::size_t>(v)];
            break;
          }
          point[static_cast<std::size_t>(v)] =
              system.bounds(static_cast<fme::Var>(v)).lo();
        }
        if (v == nv) break;
      }
    }

    fme::Solver solver;
    std::vector<std::int64_t> model;
    fme::Certificate refutation;
    const fme::Result verdict = solver.solve(system, &model, &refutation);
    if (verdict == fme::Result::kUnknown) continue;  // only possible on stop
    if (verdict == fme::Result::kUnsat) {
      const proof::FmeCheckResult check = proof::check_fme_refutation(
          proof::fme_json(proof::fme_cert(system, std::move(refutation))));
      ctx.require(check.ok, "fme_refutation", [&] {
        return "refutation rejected (" + check.error + ") on\n" +
               system.to_string();
      });
    }
    const bool fme_sat = verdict == fme::Result::kSat;
    ctx.require(fme_sat == truth_sat, "fme_verdict", [&] {
      return std::string(fme_sat ? "SAT" : "UNSAT") + " vs enumerated " +
             (truth_sat ? "SAT" : "UNSAT") + " on\n" + system.to_string();
    });
    if (fme_sat && truth_sat) {
      bool ok = model.size() == static_cast<std::size_t>(nv);
      for (int v = 0; ok && v < nv; ++v)
        ok = system.bounds(static_cast<fme::Var>(v))
                 .contains(model[static_cast<std::size_t>(v)]);
      for (const fme::LinearConstraint& c : system.constraints())
        ok = ok && fme::satisfied(c, model);
      ctx.require(ok, "fme_model",
                  [&] { return "model violates system\n" + system.to_string(); });
    }
  }
  return std::move(ctx.violations);
}

}  // namespace rtlsat::fuzz
