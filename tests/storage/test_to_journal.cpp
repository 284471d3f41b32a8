// The TO journal's shape: append-only between establishments.
//
// tosys::ToNode writes one snapshot when storage is attached and one at
// each establishment (the only transition that replaces `order` wholesale);
// every other durable transition is one O(1) record. So the bytes written
// per command must not grow with history, and the key must not be rewritten
// while the view is stable. Journals written when establishment was an
// appended record must still recover.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "storage/stable_store.h"
#include "storage/wal.h"
#include "tosys/cluster.h"
#include "tosys/to_node.h"

namespace dvs::storage {
namespace {

using sim::kMillisecond;

TEST(ToJournalTest, BytesPerCommandStayFlatAndKeyIsReplacedOnlyAtEstablishment) {
  constexpr std::uint64_t kCommands = 2000;
  constexpr std::uint64_t kBlock = 500;

  // Per-key write accounting from the barrier hook: it fires after every
  // append/replace, once the store's cumulative stats include the write.
  MemStableStore store;
  std::map<std::string, std::uint64_t> to_bytes;
  std::map<std::string, std::uint64_t> to_replaces;
  std::uint64_t seen_bytes = 0;
  std::uint64_t seen_replaces = 0;
  store.set_barrier_hook([&](const std::string& key) {
    const StorageStats& s = store.stats();
    if (key.ends_with("/to")) {
      to_bytes[key] += s.bytes_written() - seen_bytes;
      to_replaces[key] += s.replaces - seen_replaces;
    }
    seen_bytes = s.bytes_written();
    seen_replaces = s.replaces;
  });

  tosys::ClusterConfig cfg;
  cfg.n_processes = 3;
  cfg.persistence = true;
  cfg.store = &store;
  cfg.record_traces = false;
  tosys::Cluster c(cfg, 24);
  c.start();
  c.run_for(300 * kMillisecond);

  auto total_to_bytes = [&] {
    std::uint64_t sum = 0;
    for (const auto& [key, b] : to_bytes) sum += b;
    return sum;
  };
  // Broadcasts one block of commands, one per millisecond from rotating
  // origins, lets it commit everywhere, and returns the TO bytes per command.
  std::uint64_t uid = 0;
  auto run_block = [&] {
    const std::uint64_t before = total_to_bytes();
    for (std::uint64_t i = 0; i < kBlock; ++i) {
      ++uid;
      const ProcessId p{static_cast<std::uint32_t>(uid % 3)};
      c.bcast(p, AppMsg{uid, p, "cmd"});
      c.run_for(kMillisecond);
    }
    c.run_for(500 * kMillisecond);
    return static_cast<double>(total_to_bytes() - before) / kBlock;
  };

  std::vector<double> per_cmd;
  while (uid < kCommands) per_cmd.push_back(run_block());

  ASSERT_TRUE(c.oracle().ok());
  ASSERT_EQ(c.deliveries().size(), 3 * kCommands);
  EXPECT_NEAR(per_cmd.back(), per_cmd.front(), 0.1 * per_cmd.front())
      << "first " << kBlock << ": " << per_cmd.front() << " B/cmd, last "
      << kBlock << ": " << per_cmd.back() << " B/cmd";
  for (ProcessId p : c.universe()) {
    const std::string key = p.to_string() + "/to";
    // One replace at attach, at most one per establishment since.
    EXPECT_GE(to_replaces[key], 1u) << key;
    EXPECT_LE(to_replaces[key], 1 + c.to_node(p).stats().views_established)
        << key;
  }
}

TEST(ToJournalTest, EstablishRecordsFromOlderJournalsStillRecover) {
  // Record types of the TO journal (to_node.cpp); a journal written before
  // establishments became snapshots carries type 4 records.
  constexpr std::uint8_t kSnapshot = 1;
  constexpr std::uint8_t kContent = 2;
  constexpr std::uint8_t kOrder = 3;
  constexpr std::uint8_t kEstablish = 4;

  const ViewId g1{1, ProcessId{0}};
  const ViewId g2{2, ProcessId{1}};
  const Label a{g1, 1, ProcessId{0}};
  const Label b{g1, 2, ProcessId{1}};
  const Label d{g2, 1, ProcessId{2}};
  const AppMsg ma{1, ProcessId{0}, "a"};
  const AppMsg mb{2, ProcessId{1}, "b"};
  const AppMsg md{3, ProcessId{2}, "d"};

  Bytes log;
  auto put = [&log](std::uint8_t type, const std::function<void(Writer&)>& f) {
    const Bytes rec = Wal::frame(type, f);
    log.insert(log.end(), rec.begin(), rec.end());
  };
  put(kSnapshot, [&](Writer& w) {
    w.varuint(1);  // content
    w.label(a);
    w.app_msg(ma);
    w.varuint(1);  // order
    w.label(a);
    w.varuint(3);  // nextconfirm
    w.varuint(2);  // nextreport
    w.view_id(g1);
  });
  put(kContent, [&](Writer& w) {
    w.label(b);
    w.app_msg(mb);
  });
  put(kOrder, [&](Writer& w) { w.label(b); });
  put(kContent, [&](Writer& w) {
    w.label(d);
    w.app_msg(md);
  });
  // Establishment in g2 replaces order; nextconfirm max-merges.
  put(kEstablish, [&](Writer& w) {
    w.varuint(2);
    w.label(d);
    w.label(a);
    w.varuint(2);
    w.view_id(g2);
  });
  put(kOrder, [&](Writer& w) { w.label(b); });

  MemStableStore store;
  store.poke("p0/to", log);
  const toimpl::ToDurableState s = tosys::ToNode::recover(store, "p0/to");
  EXPECT_EQ(s.order, (std::vector<Label>{d, a, b}));
  EXPECT_EQ(s.content.size(), 3u);
  EXPECT_EQ(s.content.at(d), md);
  EXPECT_EQ(s.nextconfirm, 3u);
  EXPECT_EQ(s.nextreport, 2u);
  EXPECT_EQ(s.highprimary, g2);
}

}  // namespace
}  // namespace dvs::storage
