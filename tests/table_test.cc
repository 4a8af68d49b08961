#include "data/table.h"

#include <optional>
#include <set>

#include <gtest/gtest.h>

namespace janus {
namespace {

Tuple MakeTuple(uint64_t id, double v) {
  Tuple t;
  t.id = id;
  t[0] = v;
  return t;
}

TEST(DynamicTableTest, InsertFindDelete) {
  DynamicTable table(Schema{{"x"}});
  table.Insert(MakeTuple(1, 10));
  table.Insert(MakeTuple(2, 20));
  ASSERT_EQ(table.size(), 2u);
  const std::optional<Tuple> t = table.Find(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ((*t)[0], 10);
  EXPECT_TRUE(table.Delete(1));
  EXPECT_FALSE(table.Find(1).has_value());
  EXPECT_EQ(table.size(), 1u);
}

TEST(DynamicTableTest, DeleteMissingReturnsFalse) {
  DynamicTable table(Schema{{"x"}});
  EXPECT_FALSE(table.Delete(99));
  table.Insert(MakeTuple(1, 1));
  EXPECT_TRUE(table.Delete(1));
  EXPECT_FALSE(table.Delete(1));
}

TEST(DynamicTableTest, SwapRemoveKeepsIndexConsistent) {
  DynamicTable table(Schema{{"x"}});
  for (uint64_t i = 0; i < 100; ++i) table.Insert(MakeTuple(i, i * 1.0));
  // Delete from the middle repeatedly; every remaining id must stay findable.
  for (uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(table.Delete(i * 2));
  for (uint64_t i = 0; i < 100; ++i) {
    const std::optional<Tuple> t = table.Find(i);
    if (i % 2 == 0) {
      EXPECT_FALSE(t.has_value());
    } else {
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(t->id, i);
      EXPECT_DOUBLE_EQ((*t)[0], static_cast<double>(i));
    }
  }
}

TEST(DynamicTableTest, SchemaSizesColumnWidth) {
  DynamicTable narrow(Schema{{"x", "y"}});
  EXPECT_EQ(narrow.store().num_columns(), 2);
  DynamicTable fallback(Schema{});
  EXPECT_EQ(fallback.store().num_columns(), kMaxColumns);
}

TEST(DynamicTableTest, ColumnSpanIsPositionallyAligned) {
  DynamicTable table(Schema{{"x", "y"}});
  for (uint64_t i = 0; i < 10; ++i) {
    Tuple t;
    t.id = i;
    t[0] = static_cast<double>(i);
    t[1] = static_cast<double>(i) * 2;
    table.Insert(t);
  }
  table.Delete(4);  // swap-remove moves the last row into position 4
  const ColumnSpan x = table.column(0);
  const ColumnSpan y = table.column(1);
  ASSERT_EQ(x.size, table.size());
  ASSERT_EQ(y.size, table.size());
  for (size_t pos = 0; pos < table.size(); ++pos) {
    const uint64_t id = table.store().id_at(pos);
    EXPECT_DOUBLE_EQ(x[pos], static_cast<double>(id));
    EXPECT_DOUBLE_EQ(y[pos], static_cast<double>(id) * 2);
  }
  // Columns outside the schema yield an empty span.
  EXPECT_EQ(table.column(5).data, nullptr);
}

TEST(DynamicTableTest, SampleUniformSizeAndMembership) {
  DynamicTable table(Schema{{"x"}});
  for (uint64_t i = 0; i < 1000; ++i) table.Insert(MakeTuple(i, 0));
  Rng rng(5);
  auto sample = table.SampleUniform(&rng, 100);
  ASSERT_EQ(sample.size(), 100u);
  std::set<uint64_t> ids;
  for (const Tuple& t : sample) {
    EXPECT_TRUE(table.Find(t.id).has_value());
    ids.insert(t.id);
  }
  EXPECT_EQ(ids.size(), 100u);  // without replacement
}

TEST(DynamicTableTest, SampleMoreThanSizeReturnsAll) {
  DynamicTable table(Schema{{"x"}});
  for (uint64_t i = 0; i < 10; ++i) table.Insert(MakeTuple(i, 0));
  Rng rng(5);
  EXPECT_EQ(table.SampleUniform(&rng, 100).size(), 10u);
}

TEST(DynamicTableTest, SampleOneIsLive) {
  DynamicTable table(Schema{{"x"}});
  for (uint64_t i = 0; i < 10; ++i) table.Insert(MakeTuple(i, 0));
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(table.Find(table.SampleOne(&rng).id).has_value());
  }
}

TEST(DynamicTableTest, LiveReflectsDeletions) {
  DynamicTable table(Schema{{"x"}});
  for (uint64_t i = 0; i < 5; ++i) table.Insert(MakeTuple(i, 0));
  table.Delete(3);
  std::set<uint64_t> ids;
  for (uint64_t id : table.store().ids()) ids.insert(id);
  EXPECT_EQ(ids, (std::set<uint64_t>{0, 1, 2, 4}));
}

}  // namespace
}  // namespace janus
