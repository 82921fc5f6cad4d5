// The GF(256) word-at-a-time kernels against byte-wise table references,
// at awkward sizes and alignments (mirroring block_kernel_test.cc), plus
// field axioms and P+Q encode/decode round trips for every 2-erasure
// pattern: {data, data}, {data, P}, {data, Q}, {P, Q}; then the row codec
// both RADD engines decode through, against that reference.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/block.h"
#include "common/gf256.h"
#include "common/rng.h"
#include "core/row_code.h"

namespace radd {
namespace {

const size_t kAwkwardSizes[] = {0, 1, 7, 8, 9, 15, 63, 64, 65,
                                511, 4095, 4096, 4097};

Block RandomBlock(size_t n, Rng* rng) {
  Block b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(rng->Uniform(256));
  }
  return b;
}

// --- byte-wise reference ---------------------------------------------------

/// Schoolbook multiply over 0x11d, one shift-and-conditionally-reduce per
/// bit — deliberately independent of both the exp/log tables and the
/// bitsliced word path.
uint8_t ReferenceMul(uint8_t a, uint8_t b) {
  uint8_t acc = 0;
  while (b != 0) {
    if (b & 1) acc ^= a;
    uint8_t high = a & 0x80;
    a = static_cast<uint8_t>(a << 1);
    if (high) a ^= 0x1d;
    b >>= 1;
  }
  return acc;
}

// --- field axioms ----------------------------------------------------------

TEST(Gf256, MulMatchesSchoolbookExhaustively) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(GfMul(static_cast<uint8_t>(a), static_cast<uint8_t>(b)),
                ReferenceMul(static_cast<uint8_t>(a),
                             static_cast<uint8_t>(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Gf256, InverseRoundTripsForAllNonzero) {
  for (int a = 1; a < 256; ++a) {
    uint8_t inv = GfInv(static_cast<uint8_t>(a));
    EXPECT_EQ(GfMul(static_cast<uint8_t>(a), inv), 1) << "a=" << a;
    EXPECT_EQ(GfDiv(1, static_cast<uint8_t>(a)), inv) << "a=" << a;
  }
}

TEST(Gf256, DivUndoesMul) {
  Rng rng(3);
  for (int round = 0; round < 1000; ++round) {
    uint8_t a = static_cast<uint8_t>(rng.Uniform(256));
    uint8_t b = static_cast<uint8_t>(1 + rng.Uniform(255));
    EXPECT_EQ(GfDiv(GfMul(a, b), b), a);
  }
}

TEST(Gf256, GeneratorPowersAreDistinct) {
  // g = 2 is primitive: its first 255 powers enumerate every nonzero
  // element — which is what makes the member coefficients g^m (and their
  // pairwise sums) invertible in two-erasure decode.
  bool seen[256] = {};
  for (unsigned e = 0; e < 255; ++e) {
    uint8_t v = GfExp(e);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "e=" << e;
    seen[v] = true;
  }
  EXPECT_EQ(GfExp(0), 1);
  EXPECT_EQ(GfExp(255), 1);  // wraps mod 255
  EXPECT_EQ(GfQCoeff(0), 1);
  EXPECT_EQ(GfQCoeff(1), 2);
}

// --- word kernels vs byte references ---------------------------------------

TEST(Gf256Kernel, MulAddBytesMatchesByteReferenceAtAwkwardSizes) {
  Rng rng(1);
  for (size_t n : kAwkwardSizes) {
    for (uint8_t c : {uint8_t{0}, uint8_t{1}, uint8_t{2}, uint8_t{3},
                      uint8_t{0x1d}, uint8_t{0x80}, uint8_t{0xff}}) {
      Block dst = RandomBlock(n, &rng);
      Block src = RandomBlock(n, &rng);
      Block expected(n);
      for (size_t i = 0; i < n; ++i) {
        expected[i] = dst[i] ^ ReferenceMul(src[i], c);
      }
      Block got = dst;
      internal::GfMulAddBytes(got.data(), src.data(), c, n);
      EXPECT_EQ(got, expected) << "n=" << n << " c=" << int(c);
    }
  }
}

TEST(Gf256Kernel, MulAddBytesAtUnalignedOffsets) {
  // Drive the kernel at every head misalignment so the word body starts
  // off an 8-byte boundary; the byte reference must still agree.
  Rng rng(5);
  Block dst = RandomBlock(4096 + 16, &rng);
  Block src = RandomBlock(4096 + 16, &rng);
  for (size_t off : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                     size_t{7}, size_t{8}, size_t{9}, size_t{15}}) {
    const size_t n = 4096;
    Block expected = dst;
    for (size_t i = 0; i < n; ++i) {
      expected[off + i] =
          static_cast<uint8_t>(dst[off + i] ^ ReferenceMul(src[off + i], 7));
    }
    Block got = dst;
    internal::GfMulAddBytes(got.data() + off, src.data() + off, 7, n);
    EXPECT_EQ(got, expected) << "off=" << off;
  }
}

TEST(Gf256Kernel, ScaleBytesMatchesByteReferenceAtAwkwardSizes) {
  Rng rng(9);
  for (size_t n : kAwkwardSizes) {
    for (uint8_t c : {uint8_t{0}, uint8_t{1}, uint8_t{2}, uint8_t{0x53},
                      uint8_t{0xca}, uint8_t{0xff}}) {
      Block b = RandomBlock(n, &rng);
      Block expected(n);
      for (size_t i = 0; i < n; ++i) expected[i] = ReferenceMul(b[i], c);
      Block got = b;
      internal::GfScaleBytes(got.data(), c, n);
      EXPECT_EQ(got, expected) << "n=" << n << " c=" << int(c);
    }
  }
}

TEST(Gf256Kernel, MulAddIntoRejectsMismatchedSizes) {
  Block dst(16);
  Block src(8);
  EXPECT_FALSE(GfMulAddInto(&dst, src, 2).ok());
}

TEST(Gf256Kernel, ScaleThenScaleByInverseIsIdentity) {
  Rng rng(13);
  Block b = RandomBlock(4097, &rng);
  Block orig = b;
  GfScaleInPlace(&b, 0x8e);
  GfScaleInPlace(&b, GfInv(0x8e));
  EXPECT_EQ(b, orig);
}

TEST(Gf256Kernel, MulAddDistributesOverXor) {
  // c*(a ^ b) == c*a ^ c*b — the linearity the delta discipline relies on:
  // shipping the XOR delta and scaling at the Q site equals re-encoding.
  Rng rng(17);
  for (size_t n : {size_t{65}, size_t{4096}}) {
    Block a = RandomBlock(n, &rng);
    Block b = RandomBlock(n, &rng);
    uint8_t c = 0xb7;
    Block lhs(n);
    Block axb = a;
    ASSERT_TRUE(axb.XorWith(b).ok());
    ASSERT_TRUE(GfMulAddInto(&lhs, axb, c).ok());
    Block rhs(n);
    ASSERT_TRUE(GfMulAddInto(&rhs, a, c).ok());
    ASSERT_TRUE(GfMulAddInto(&rhs, b, c).ok());
    EXPECT_EQ(lhs, rhs) << "n=" << n;
  }
}

// --- P+Q encode/decode round trips -----------------------------------------

/// A miniature P+Q codec over G data blocks with member coefficients
/// g^m: the independent reference the row codec (core/row_code.h) is
/// checked against below.
struct PqCode {
  std::vector<Block> data;
  Block p{0};
  Block q{0};

  static PqCode Encode(const std::vector<Block>& d) {
    PqCode code;
    code.data = d;
    code.p = Block(d[0].size());
    code.q = Block(d[0].size());
    for (size_t m = 0; m < d.size(); ++m) {
      EXPECT_TRUE(code.p.XorWith(d[m]).ok());
      EXPECT_TRUE(
          GfMulAddInto(&code.q, d[m], GfQCoeff(static_cast<int>(m))).ok());
    }
    return code;
  }

  /// Recover data member `a` with only P erased alongside it (uses Q).
  Block DecodeViaQ(size_t a) const {
    Block sq = q;
    for (size_t m = 0; m < data.size(); ++m) {
      if (m == a) continue;
      EXPECT_TRUE(
          GfMulAddInto(&sq, data[m], GfQCoeff(static_cast<int>(m))).ok());
    }
    GfScaleInPlace(&sq, GfInv(GfQCoeff(static_cast<int>(a))));
    return sq;
  }

  /// Recover data member `a` with only Q erased alongside it (uses P).
  Block DecodeViaP(size_t a) const {
    Block sp = p;
    for (size_t m = 0; m < data.size(); ++m) {
      if (m == a) continue;
      EXPECT_TRUE(sp.XorWith(data[m]).ok());
    }
    return sp;
  }

  /// Recover data members `a` and `b` (both erased) from P and Q.
  std::pair<Block, Block> DecodeTwoData(size_t a, size_t b) const {
    Block sp = p;
    Block sq = q;
    for (size_t m = 0; m < data.size(); ++m) {
      if (m == a || m == b) continue;
      EXPECT_TRUE(sp.XorWith(data[m]).ok());
      EXPECT_TRUE(
          GfMulAddInto(&sq, data[m], GfQCoeff(static_cast<int>(m))).ok());
    }
    // (g^b * Sp) ^ Sq = (g^a ^ g^b) * D_a.
    const uint8_t ca = GfQCoeff(static_cast<int>(a));
    const uint8_t cb = GfQCoeff(static_cast<int>(b));
    Block da = sq;
    EXPECT_TRUE(GfMulAddInto(&da, sp, cb).ok());
    GfScaleInPlace(&da, GfInv(static_cast<uint8_t>(ca ^ cb)));
    Block db = sp;
    EXPECT_TRUE(db.XorWith(da).ok());
    return {std::move(da), std::move(db)};
  }
};

TEST(PqRoundTrip, AllTwoErasurePatternsAtAwkwardSizes) {
  Rng rng(29);
  const int g = 5;
  for (size_t n : {size_t{1}, size_t{9}, size_t{65}, size_t{511},
                   size_t{4097}}) {
    std::vector<Block> d;
    for (int m = 0; m < g; ++m) d.push_back(RandomBlock(n, &rng));
    PqCode code = PqCode::Encode(d);

    // {data a, data b}: every pair.
    for (size_t a = 0; a < static_cast<size_t>(g); ++a) {
      for (size_t b = a + 1; b < static_cast<size_t>(g); ++b) {
        auto [da, db] = code.DecodeTwoData(a, b);
        EXPECT_EQ(da, d[a]) << "n=" << n << " a=" << a << " b=" << b;
        EXPECT_EQ(db, d[b]) << "n=" << n << " a=" << a << " b=" << b;
      }
    }
    // {data, P}: decode via Q.
    for (size_t a = 0; a < static_cast<size_t>(g); ++a) {
      EXPECT_EQ(code.DecodeViaQ(a), d[a]) << "n=" << n << " a=" << a;
    }
    // {data, Q}: classic formula (2) via P.
    for (size_t a = 0; a < static_cast<size_t>(g); ++a) {
      EXPECT_EQ(code.DecodeViaP(a), d[a]) << "n=" << n << " a=" << a;
    }
    // {P, Q}: both parities re-encodable from intact data.
    PqCode again = PqCode::Encode(d);
    EXPECT_EQ(again.p, code.p);
    EXPECT_EQ(again.q, code.q);
  }
}

TEST(PqRoundTrip, DeltaDisciplineUpdatesBothParities) {
  // Overwrite one member, ship delta = new ^ old to P, and g^m * delta to
  // Q; the results must equal a from-scratch re-encode.
  Rng rng(37);
  const int g = 7;
  const size_t n = 4096;
  std::vector<Block> d;
  for (int m = 0; m < g; ++m) d.push_back(RandomBlock(n, &rng));
  PqCode code = PqCode::Encode(d);

  const size_t victim = 3;
  Block fresh = RandomBlock(n, &rng);
  Block delta = fresh;
  ASSERT_TRUE(delta.XorWith(d[victim]).ok());

  ASSERT_TRUE(code.p.XorWith(delta).ok());  // P' = P ^ delta
  ASSERT_TRUE(GfMulAddInto(&code.q, delta,
                           GfQCoeff(static_cast<int>(victim)))
                  .ok());  // Q' = Q ^ g^m * delta

  d[victim] = fresh;
  PqCode expect = PqCode::Encode(d);
  EXPECT_EQ(code.p, expect.p);
  EXPECT_EQ(code.q, expect.q);
}

TEST(PqRoundTrip, HighMemberIndicesStayInvertible) {
  // Member indices up to the largest group the simulator runs (well under
  // 255): g^a ^ g^b must be nonzero for every distinct pair.
  for (int a = 0; a < 64; ++a) {
    for (int b = a + 1; b < 64; ++b) {
      EXPECT_NE(GfQCoeff(a) ^ GfQCoeff(b), 0) << "a=" << a << " b=" << b;
    }
  }
}

// --- the row codec against PqCode ------------------------------------------

/// One row for the codec: G data blocks (members 0..G-1) with the legs'
/// arrays naming each member's UID, and the reference encoding.
struct CodecRow {
  std::vector<Block> d;
  std::vector<Uid> uids;
  PqCode code;

  CodecRow(int g, size_t n, Rng* rng) {
    for (int m = 0; m < g; ++m) {
      d.push_back(RandomBlock(n, rng));
      uids.push_back(Uid::Make(1, static_cast<uint64_t>(m) + 1));
    }
    code = PqCode::Encode(d);
  }

  /// The blocks a decode of `home` reads with `lost` (or -1) erased too,
  /// and each leg of `plan`.
  RowRead Read(const RowPlan& plan, int home, int lost) const {
    RowRead read;
    for (int m = 0; m < static_cast<int>(d.size()); ++m) {
      if (m == home || m == lost) continue;
      read.data.push_back({m, uids[static_cast<size_t>(m)],
                           &d[static_cast<size_t>(m)]});
    }
    if (plan.use[0]) read.legs[0] = {&code.p, &uids};
    if (plan.use[1]) read.legs[1] = {&code.q, &uids};
    return read;
  }
};

std::vector<SiteId> Members(int g) {
  std::vector<SiteId> out;
  for (int m = 0; m < g; ++m) out.push_back(static_cast<SiteId>(m));
  return out;
}

/// Plans, checks and decodes `home` with `lost` erased too; nullopt when
/// the plan is Blocked.
std::optional<Block> Decode(const CodecRow& row, int home, int lost,
                            const std::array<bool, 2>& usable,
                            RowPlan* plan_out = nullptr) {
  std::vector<int> erased;
  if (lost >= 0) erased.push_back(lost);
  Result<RowPlan> plan = PlanDecode(home, erased, usable);
  if (!plan.ok()) {
    EXPECT_TRUE(plan.status().IsBlocked()) << plan.status().ToString();
    return std::nullopt;
  }
  if (plan_out != nullptr) *plan_out = *plan;
  RowRead read = row.Read(*plan, home, lost);
  const std::vector<SiteId> members =
      Members(static_cast<int>(row.d.size()));
  EXPECT_TRUE(CheckRow(*plan, read, members));
  EXPECT_EQ(DecodedUid(*plan, read), row.uids[static_cast<size_t>(home)]);
  Block out(row.d[0].size());
  EXPECT_TRUE(DecodeRow(*plan, read, &out).ok());
  return out;
}

TEST(RowCode, DecodesEverySingleAndDoubleErasureLikePqCode) {
  Rng rng(41);
  for (int legs : {1, 2}) {
    for (int g : {1, 4, 8}) {
      for (size_t n : {size_t{1}, size_t{65}, size_t{4097}}) {
        CodecRow row(g, n, &rng);
        const std::array<bool, 2> both{true, legs == 2};
        for (int a = 0; a < g; ++a) {
          const size_t ua = static_cast<size_t>(a);
          // {a}: P decodes it, formula (2).
          RowPlan plan;
          std::optional<Block> got = Decode(row, a, -1, both, &plan);
          ASSERT_TRUE(got.has_value());
          EXPECT_TRUE(plan.use[0] && !plan.use[1]);
          EXPECT_EQ(*got, row.code.DecodeViaP(ua));
          EXPECT_EQ(*got, row.d[ua]);
          // {a, P}: Q decodes it under P+Q; nothing does under one leg.
          got = Decode(row, a, -1, {false, legs == 2}, &plan);
          if (legs == 1) {
            EXPECT_FALSE(got.has_value());
          } else {
            ASSERT_TRUE(got.has_value());
            EXPECT_TRUE(!plan.use[0] && plan.use[1]);
            EXPECT_EQ(*got, row.code.DecodeViaQ(ua));
          }
          // {a, Q}: P decodes it.
          got = Decode(row, a, -1, {true, false});
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, row.d[ua]);
          // {a, b}: the two-erasure solve needs both legs.
          for (int b = 0; b < g; ++b) {
            if (b == a) continue;
            got = Decode(row, a, b, both, &plan);
            if (legs == 1) {
              EXPECT_FALSE(got.has_value());
              continue;
            }
            ASSERT_TRUE(got.has_value()) << "a=" << a << " b=" << b;
            EXPECT_TRUE(plan.two_legs());
            EXPECT_EQ(*got,
                      row.code.DecodeTwoData(ua, static_cast<size_t>(b))
                          .first)
                << "g=" << g << " n=" << n << " a=" << a << " b=" << b;
            EXPECT_FALSE(Decode(row, a, b, {true, false}).has_value());
            EXPECT_FALSE(Decode(row, a, b, {false, true}).has_value());
          }
        }
      }
    }
  }
}

TEST(RowCode, PlanHonoursForcedLegAndAvoidedP) {
  const std::vector<int> none;
  const std::vector<int> one{3};
  const std::vector<int> two{3, 4};
  Result<RowPlan> plan = PlanDecode(0, none, {true, true}, {1, false});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(!plan->use[0] && plan->use[1]);
  EXPECT_TRUE(PlanDecode(0, none, {true, false}, {1, false})
                  .status()
                  .IsBlocked());
  EXPECT_TRUE(PlanDecode(0, one, {true, true}, {0, false})
                  .status()
                  .IsBlocked());
  plan = PlanDecode(0, none, {true, true}, {-1, true});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(!plan->use[0] && plan->use[1]);
  // With Q unusable, a P that failed validation is still the only leg.
  plan = PlanDecode(0, none, {true, false}, {-1, true});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->use[0] && !plan->use[1]);
  EXPECT_TRUE(PlanDecode(0, two, {true, true}).status().IsBlocked());
}

TEST(RowCode, EncodeMatchesPqCode) {
  Rng rng(43);
  for (int g : {1, 4, 8}) {
    for (size_t n : {size_t{1}, size_t{65}, size_t{4097}}) {
      CodecRow row(g, n, &rng);
      RowRead all = row.Read(RowPlan{}, -1, -1);
      Block p(n);
      Block q(n);
      ASSERT_TRUE(EncodeLeg(0, all.data, &p).ok());
      ASSERT_TRUE(EncodeLeg(1, all.data, &q).ok());
      EXPECT_EQ(p, row.code.p) << "g=" << g << " n=" << n;
      EXPECT_EQ(q, row.code.q) << "g=" << g << " n=" << n;
      const std::vector<Uid> array =
          EncodeArray(all.data, static_cast<size_t>(g) + 3);
      EXPECT_TRUE(ArrayNames(array, all.data));
      EXPECT_EQ(array.size(), static_cast<size_t>(g) + 3);
      EXPECT_FALSE(array.back().valid());
    }
  }
}

TEST(RowCode, CheckRefusesATornPair) {
  // P names member 1's new write, Q still the old one, and member 1 is
  // erased alongside the home: two equations, three unknowns. Only the
  // cross-leg comparison can see it, since nobody read member 1.
  Rng rng(47);
  CodecRow row(4, 65, &rng);
  Result<RowPlan> plan =
      PlanDecode(0, std::vector<int>{1}, {true, true});
  ASSERT_TRUE(plan.ok());
  RowRead read = row.Read(*plan, 0, 1);
  std::vector<Uid> q_array = row.uids;
  q_array[1] = Uid::Make(1, 99);
  read.legs[1].uid_array = &q_array;
  EXPECT_FALSE(CheckRow(*plan, read, Members(4)));
  // A source the planned leg does not name fails the §3.3 check too.
  RowRead stale = row.Read(*plan, 0, 1);
  stale.data[0].uid = Uid::Make(2, 7);
  EXPECT_FALSE(CheckRow(*plan, stale, Members(4)));
}

TEST(RowCode, DecodeRefusesAWrongSizeSource) {
  Rng rng(53);
  CodecRow row(4, 65, &rng);
  for (bool two : {false, true}) {
    std::vector<int> erased;
    if (two) erased.push_back(2);
    Result<RowPlan> plan = PlanDecode(0, erased, {true, true});
    ASSERT_TRUE(plan.ok());
    RowRead read = row.Read(*plan, 0, two ? 2 : -1);
    const Block short_block(64);
    read.data[0].data = &short_block;
    Block out(65);
    EXPECT_TRUE(DecodeRow(*plan, read, &out).IsInvalidArgument());
    RowRead bad_leg = row.Read(*plan, 0, two ? 2 : -1);
    bad_leg.legs[0].data = &short_block;
    Block out2(65);
    EXPECT_TRUE(DecodeRow(*plan, bad_leg, &out2).IsInvalidArgument());
  }
}

}  // namespace
}  // namespace radd
