// Reproduces the thesis's worked examples end to end:
//   - Example 4.1.1: ST-cell set sequence derivation.
//   - Example 4.2.1 (Tables 4.1-4.3): signature computation under the
//     explicit hash table.
//   - Sec. 4.2.2's sample MinSigTree (Figure 4.1): grouping, routing
//     indexes, and node values.
//   - Example 5.2.1: query processing picks ea as the top-1 for query ec.
#include <gtest/gtest.h>

#include <memory>

#include "core/association.h"
#include "core/min_sig_tree.h"
#include "core/query.h"
#include "core/signature.h"
#include "hash/table_hasher.h"
#include "trace/spatial_hierarchy.h"
#include "trace/trace_store.h"

namespace dtrace {
namespace {

// The example's world: base units L1..L4 (ids 0..3), parents L5, L6 (ids
// 0, 1), two time steps T1, T2 (0, 1), m = 2.
class PaperExampleFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SpatialHierarchy::Builder b(/*top_units=*/2);
    b.AddLevel({0, 0, 1, 1});  // L1,L2 -> L5; L3,L4 -> L6
    hierarchy_ = std::make_shared<SpatialHierarchy>(std::move(b).Build());

    // Table 4.2's ST-cell set sequences, expressed as presence records:
    //   ea: T1L2, T2L1;  eb: T1L1, T2L2;  ec: T1L3, T2L1;  ed: T1L4, T2L4.
    std::vector<PresenceRecord> records = {
        {0, 1, 0, 1}, {0, 0, 1, 2},  // ea
        {1, 0, 0, 1}, {1, 1, 1, 2},  // eb
        {2, 2, 0, 1}, {2, 0, 1, 2},  // ec
        {3, 3, 0, 1}, {3, 3, 1, 2},  // ed
    };
    store_ = std::make_unique<TraceStore>(*hierarchy_, 4, 2, records);

    // Table 4.1's hash table (columns T1L1 T2L1 T1L2 T2L2 T1L3 T2L3 T1L4
    // T2L4; rows h1, h2). Base cell id = t * 4 + unit.
    std::vector<std::vector<uint64_t>> base(2,
                                            std::vector<uint64_t>(8, 0));
    auto set = [&](int u, TimeStep t, UnitId unit, uint64_t v) {
      base[u][t * 4 + unit] = v;
    };
    // h1
    set(0, 0, 0, 2);  // T1L1
    set(0, 1, 0, 8);  // T2L1
    set(0, 0, 1, 5);  // T1L2
    set(0, 1, 1, 1);  // T2L2
    set(0, 0, 2, 4);  // T1L3
    set(0, 1, 2, 6);  // T2L3
    set(0, 0, 3, 7);  // T1L4
    set(0, 1, 3, 3);  // T2L4
    // h2
    set(1, 0, 0, 8);
    set(1, 1, 0, 3);
    set(1, 0, 1, 6);
    set(1, 1, 1, 5);
    set(1, 0, 2, 4);
    set(1, 1, 2, 1);
    set(1, 0, 3, 2);
    set(1, 1, 3, 7);
    hasher_ = std::make_unique<TableHasher>(*hierarchy_, 2, std::move(base));
    sigs_ = std::make_unique<SignatureComputer>(*store_, *hasher_);
  }

  std::shared_ptr<SpatialHierarchy> hierarchy_;
  std::unique_ptr<TraceStore> store_;
  std::unique_ptr<TableHasher> hasher_;
  std::unique_ptr<SignatureComputer> sigs_;
};

TEST_F(PaperExampleFixture, Example411CellSetDerivation) {
  // Example 4.1.1 (adapted to the Table 4.2 traces): seq^2 holds base
  // cells; seq^1 maps them to parent units.
  const EntityId ea = 0;
  const auto level2 = store_->cells(ea, 2);
  ASSERT_EQ(level2.size(), 2u);
  // T1L2 = 0*4+1 = 1, T2L1 = 1*4+0 = 4.
  EXPECT_EQ(level2[0], 1u);
  EXPECT_EQ(level2[1], 4u);
  const auto level1 = store_->cells(ea, 1);
  ASSERT_EQ(level1.size(), 2u);
  // T1L5 = 0*2+0 = 0, T2L5 = 1*2+0 = 2.
  EXPECT_EQ(level1[0], 0u);
  EXPECT_EQ(level1[1], 2u);
}

TEST_F(PaperExampleFixture, ParentHashIsMinOverChildren) {
  // h1(T1L5) = min{h1(T1L1), h1(T1L2)} = min{2, 5} = 2; h1(T2L5) = 1;
  // h2(T1L5) = 6; h2(T2L5) = 3 — exactly Example 4.2.1's derivation.
  EXPECT_EQ(hasher_->Hash(0, 1, /*T1L5=*/0), 2u);
  EXPECT_EQ(hasher_->Hash(0, 1, /*T2L5=*/2), 1u);
  EXPECT_EQ(hasher_->Hash(1, 1, 0), 6u);
  EXPECT_EQ(hasher_->Hash(1, 1, 2), 3u);
}

TEST_F(PaperExampleFixture, Example421SignatureTable) {
  // Table 4.3: sig(ea) = <<1,3>, <5,3>>, sig(eb) = <<1,3>, <1,5>>,
  // sig(ec) = <<1,2>, <4,3>>, sig(ed) = <<3,1>, <3,2>>.
  //
  // Note: the thesis prints sig(ed) level 2 as <3,7>, but by its own Table
  // 4.1, h2 over seq^2_d = {T1L4, T2L4} is min{2, 7} = 2 — a typo in the
  // thesis (the same slip propagates to its Figure 4.1, where node N12
  // carries value 7). We assert the arithmetic implied by Table 4.1.
  struct Expected {
    uint64_t l1h1, l1h2, l2h1, l2h2;
  };
  const Expected expected[4] = {
      {1, 3, 5, 3}, {1, 3, 1, 5}, {1, 2, 4, 3}, {3, 1, 3, 2}};
  for (EntityId e = 0; e < 4; ++e) {
    const SignatureList sig = sigs_->Compute(e);
    EXPECT_EQ(sig.level(1)[0], expected[e].l1h1) << "entity " << e;
    EXPECT_EQ(sig.level(1)[1], expected[e].l1h2) << "entity " << e;
    EXPECT_EQ(sig.level(2)[0], expected[e].l2h1) << "entity " << e;
    EXPECT_EQ(sig.level(2)[1], expected[e].l2h2) << "entity " << e;
  }
}

TEST_F(PaperExampleFixture, Figure41MinSigTree) {
  const std::vector<EntityId> all = {0, 1, 2, 3};
  const MinSigTree tree = MinSigTree::Build(*sigs_, all);
  tree.CheckInvariants(*sigs_);

  // Level 1: N1 = {ed} with routing index 1 (0-based: 0) and value 3;
  // N2 = {ea, eb, ec} with routing index 2 (0-based: 1) and value 2.
  const auto& root = tree.node(tree.root());
  ASSERT_EQ(root.children.size(), 2u);
  const auto& n1 = tree.node(root.children[0]);
  const auto& n2 = tree.node(root.children[1]);
  EXPECT_EQ(n1.routing, 0);
  EXPECT_EQ(n1.value, 3u);
  EXPECT_EQ(n2.routing, 1);
  EXPECT_EQ(n2.value, 2u);

  // Level 2 (Figure 4.1): the thesis draws N12 = {ed} with routing 2 and
  // value 7 based on its sig(ed) typo (see Example421SignatureTable); with
  // the corrected sig(ed) = <3,2> the group routes on h1 with value 3.
  // N21 = {ea, ec} value 4 and N22 = {eb} value 5 match the thesis.
  ASSERT_EQ(n1.children.size(), 1u);
  const auto& n11 = tree.node(n1.children[0]);
  EXPECT_EQ(n11.routing, 0);
  EXPECT_EQ(n11.value, 3u);
  EXPECT_EQ(n11.entities, (std::vector<EntityId>{3}));

  ASSERT_EQ(n2.children.size(), 2u);
  const auto& n21 = tree.node(n2.children[0]);
  const auto& n22 = tree.node(n2.children[1]);
  EXPECT_EQ(n21.routing, 0);
  EXPECT_EQ(n21.value, 4u);
  EXPECT_EQ(n21.entities, (std::vector<EntityId>{0, 2}));
  EXPECT_EQ(n22.routing, 1);
  EXPECT_EQ(n22.value, 5u);
  EXPECT_EQ(n22.entities, (std::vector<EntityId>{1}));
}

TEST_F(PaperExampleFixture, Example521QueryReturnsEa) {
  // Example 5.2.1: Dice-based measure with weights 0.1 / 0.9, query ec,
  // top-1. The search must return ea. (The thesis reports deg(ea,ec) =
  // 0.15; by the stated formula the value is 0.1*(1/4) + 0.9*(1/4) = 0.25 —
  // we assert the formula, and the ranking, which both match.)
  const std::vector<EntityId> all = {0, 1, 2, 3};
  const MinSigTree tree = MinSigTree::Build(*sigs_, all);
  WeightedDiceMeasure measure({0.1, 0.9});
  const SearchLane lane{&tree};
  const auto query = [&](EntityId q, int k) {
    return ForestTopKQuery({&lane, 1}, *store_, *hasher_, measure, q, k);
  };

  const TopKResult r = query(/*ec=*/2, /*k=*/1);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0].entity, 0u);  // ea
  EXPECT_DOUBLE_EQ(r.items[0].score, 0.1 * 0.25 + 0.9 * 0.25);

  // And it agrees with brute force for every query entity and k.
  for (EntityId q = 0; q < 4; ++q) {
    for (int k = 1; k <= 3; ++k) {
      const TopKResult fast = query(q, k);
      const TopKResult slow = BruteForceTopK(tree, *store_, measure, q, k);
      ASSERT_EQ(fast.items.size(), slow.items.size());
      for (size_t i = 0; i < fast.items.size(); ++i) {
        EXPECT_DOUBLE_EQ(fast.items[i].score, slow.items[i].score);
      }
    }
  }
}

}  // namespace
}  // namespace dtrace
