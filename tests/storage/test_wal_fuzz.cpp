// WAL robustness fuzz: adversarially damaged logs (bit flips anywhere,
// truncation at every byte, whole-log and per-record duplication) must
// surface as clean prefix recovery — never a crash, a foreign exception, or
// a silently wrong state. This is the contract every layer journal relies
// on: a torn tail after a crash is indistinguishable from corruption, so
// read_wal returns the longest CRC-verified prefix and replay is idempotent.
//
// Coverage:
//   * golden frame bytes pinned to hex (the on-disk format is an interface);
//   * frame/read_wal round trips, store-level corrupt-tail recovery;
//   * bit-flip-every-bit and truncate-at-every-byte prefix properties;
//   * MemStableStore / FileStableStore basics (stats, barriers, reopen);
//   * layer journals produced by a real persistent cluster run: recover()
//     equals the live automaton's durable_state(), and recover() of the
//     duplicated log (whole-log doubling and per-record doubling) equals
//     recover() of the original — duplicate records are legal;
//   * the exchange snapshot codec via restore → attach → recover.
#include <gtest/gtest.h>

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dvsys/dvs_node.h"
#include "dvsys/exchange_node.h"
#include "common/rng.h"
#include "storage/file_store.h"
#include "storage/stable_store.h"
#include "storage/wal.h"
#include "tosys/cluster.h"
#include "tosys/to_node.h"
#include "vsys/vs_node.h"

namespace dvs::storage {
namespace {

using sim::kMillisecond;
using sim::kSecond;

Bytes from_hex(const std::string& hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::byte>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::byte x : b) {
    out += digits[std::to_integer<unsigned>(x) >> 4];
    out += digits[std::to_integer<unsigned>(x) & 0xF];
  }
  return out;
}

/// A small log of records with distinctive payloads, for damage sweeps.
Bytes sample_log(std::vector<WalRecord>* originals = nullptr) {
  Bytes log;
  for (std::uint8_t i = 1; i <= 5; ++i) {
    const Bytes rec = Wal::frame(i, [i](Writer& w) {
      w.u64(0x1000 + i);
      w.str(std::string(i * 3, static_cast<char>('a' + i)));
    });
    if (originals != nullptr) {
      WalContents one = read_wal(rec);
      originals->push_back(one.records.at(0));
    }
    log.insert(log.end(), rec.begin(), rec.end());
  }
  return log;
}

/// Re-frames a decoded record byte-identically (local copy of the framing
/// rules, so the test notices if Wal::frame drifts from the documented
/// format).
Bytes reframe(const WalRecord& r) {
  Bytes out;
  out.push_back(static_cast<std::byte>(kWalMagic));
  out.push_back(static_cast<std::byte>(r.type));
  std::uint64_t v = r.payload.size();
  do {
    std::uint8_t b = v & 0x7F;
    v >>= 7;
    if (v != 0) b |= 0x80;
    out.push_back(static_cast<std::byte>(b));
  } while (v != 0);
  out.insert(out.end(), r.payload.begin(), r.payload.end());
  const std::uint32_t c = crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((c >> (8 * i)) & 0xFF));
  }
  return out;
}

// ----- framing -------------------------------------------------------------

TEST(WalFormatTest, GoldenFrameBytes) {
  // The record layout is an on-disk interface: magic 0xD5, type, varuint
  // length, payload, little-endian CRC-32 over magic..payload. Pinned so an
  // accidental format change (which would orphan existing logs) fails here.
  const Bytes rec = Wal::frame(0x07, [](Writer& w) { w.u64(0xDEADBEEF); });
  EXPECT_EQ(to_hex(rec), "d50708efbeadde000000004c8c76f5");
}

TEST(WalFormatTest, FrameRoundTrip) {
  std::vector<WalRecord> originals;
  const Bytes log = sample_log(&originals);
  const WalContents c = read_wal(log);
  ASSERT_EQ(c.records.size(), originals.size());
  EXPECT_FALSE(c.corrupt_tail);
  EXPECT_EQ(c.bytes_consumed, log.size());
  for (std::size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(c.records[i].type, originals[i].type);
    EXPECT_EQ(c.records[i].payload, originals[i].payload);
  }
  // reframe() reproduces the original log byte-for-byte.
  Bytes rebuilt;
  for (const WalRecord& r : c.records) {
    const Bytes f = reframe(r);
    rebuilt.insert(rebuilt.end(), f.begin(), f.end());
  }
  EXPECT_EQ(rebuilt, log);
}

TEST(WalFormatTest, EmptyAndAbsentLogsDecodeEmpty) {
  EXPECT_TRUE(read_wal(Bytes{}).records.empty());
  EXPECT_FALSE(read_wal(Bytes{}).corrupt_tail);
  MemStableStore store;
  const WalContents c = read_wal(store, "never-written");
  EXPECT_TRUE(c.records.empty());
  EXPECT_FALSE(c.corrupt_tail);
}

// ----- damage sweeps -------------------------------------------------------

TEST(WalFuzzTest, BitFlipAnywhereYieldsVerifiedPrefix) {
  std::vector<WalRecord> originals;
  const Bytes log = sample_log(&originals);
  // Record extents, so a flip position maps to the record it damages.
  std::vector<std::size_t> ends;  // end offset of record i
  {
    Bytes prefix;
    for (const WalRecord& r : originals) {
      const Bytes f = reframe(r);
      prefix.insert(prefix.end(), f.begin(), f.end());
      ends.push_back(prefix.size());
    }
  }
  for (std::size_t pos = 0; pos < log.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes damaged = log;
      damaged[pos] ^= static_cast<std::byte>(1u << bit);
      WalContents c;
      ASSERT_NO_THROW(c = read_wal(damaged)) << "pos=" << pos << " bit=" << bit;
      // The damaged record's index: first record whose extent covers pos.
      std::size_t damaged_idx = 0;
      while (ends[damaged_idx] <= pos) ++damaged_idx;
      // Everything before the damaged record survives; the damaged record
      // and everything after it never reappear as modified-but-valid.
      ASSERT_LE(c.records.size(), damaged_idx)
          << "pos=" << pos << " bit=" << bit;
      for (std::size_t i = 0; i < c.records.size(); ++i) {
        EXPECT_EQ(c.records[i].type, originals[i].type);
        EXPECT_EQ(c.records[i].payload, originals[i].payload);
      }
      EXPECT_TRUE(c.corrupt_tail) << "pos=" << pos << " bit=" << bit;
    }
  }
}

TEST(WalFuzzTest, TruncateAtEveryByteYieldsVerifiedPrefix) {
  std::vector<WalRecord> originals;
  const Bytes log = sample_log(&originals);
  std::vector<std::size_t> ends;
  {
    Bytes prefix;
    for (const WalRecord& r : originals) {
      const Bytes f = reframe(r);
      prefix.insert(prefix.end(), f.begin(), f.end());
      ends.push_back(prefix.size());
    }
  }
  for (std::size_t len = 0; len < log.size(); ++len) {
    const Bytes cut(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(len));
    WalContents c;
    ASSERT_NO_THROW(c = read_wal(cut)) << "len=" << len;
    // Exactly the records whose full extent fits survive.
    std::size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= len) ++expect;
    EXPECT_EQ(c.records.size(), expect) << "len=" << len;
    for (std::size_t i = 0; i < c.records.size(); ++i) {
      EXPECT_EQ(c.records[i].payload, originals[i].payload);
    }
    EXPECT_EQ(c.bytes_consumed, expect == 0 ? 0 : ends[expect - 1]);
    EXPECT_EQ(c.corrupt_tail, c.bytes_consumed != len);
  }
}

TEST(WalFuzzTest, GarbageTailOnStoreKeyRecoversPrefix) {
  MemStableStore store;
  Wal wal(store, "k");
  wal.append(1, [](Writer& w) { w.u64(7); });
  wal.append(2, [](Writer& w) { w.str("x"); });
  Bytes raw = *store.load("k");
  const std::size_t clean = raw.size();
  // A torn third record: half a frame, then noise.
  raw.push_back(static_cast<std::byte>(kWalMagic));
  raw.push_back(static_cast<std::byte>(3));
  raw.push_back(static_cast<std::byte>(200));
  store.poke("k", raw);
  const WalContents c = read_wal(store, "k");
  EXPECT_EQ(c.records.size(), 2u);
  EXPECT_EQ(c.bytes_consumed, clean);
  EXPECT_TRUE(c.corrupt_tail);
}

// ----- stable stores -------------------------------------------------------

TEST(StableStoreTest, MemStoreStatsAndBarrierHook) {
  MemStableStore store;
  std::vector<std::string> barriers;
  store.set_barrier_hook([&](const std::string& key) {
    barriers.push_back(key);
  });
  store.append("a", from_hex("0102"));
  store.append("a", from_hex("03"));
  store.replace("a", from_hex("ff"));
  EXPECT_EQ(store.load("a"), from_hex("ff"));
  EXPECT_EQ(store.load("missing"), std::nullopt);
  EXPECT_EQ(store.stats().appends, 2u);
  EXPECT_EQ(store.stats().bytes_appended, 3u);
  EXPECT_EQ(store.stats().replaces, 1u);
  EXPECT_EQ(store.stats().bytes_replaced, 1u);
  EXPECT_EQ(store.stats().bytes_written(), 4u);
  EXPECT_EQ(store.stats().loads, 2u);
  EXPECT_EQ(barriers, (std::vector<std::string>{"a", "a", "a"}));
}

TEST(StableStoreTest, FileStoreRoundTripAndReopen) {
  const std::string root =
      (std::filesystem::path(::testing::TempDir()) / "dvs_wal_fuzz_store")
          .string();
  {
    FileStableStore store(root);
    store.wipe();
    Wal wal(store, "p0/dvs");  // path separator must flatten, not nest
    wal.append(1, [](Writer& w) { w.u64(42); });
    wal.append(2, [](Writer& w) { w.str("hello"); });
    const WalContents c = read_wal(store, "p0/dvs");
    ASSERT_EQ(c.records.size(), 2u);
    EXPECT_FALSE(c.corrupt_tail);
  }
  {
    // A new instance over the same root sees the same bytes (this is the
    // "survives the process" property the benches rely on).
    FileStableStore store(root);
    const WalContents c = read_wal(store, "p0/dvs");
    ASSERT_EQ(c.records.size(), 2u);
    {
      const Bytes& p = c.records[1].payload;
      Reader r(p);
      EXPECT_EQ(r.str(), "hello");
    }
    // replace() truncates wholesale.
    store.replace("p0/dvs", Wal::frame(9, [](Writer& w) { w.u64(1); }));
    EXPECT_EQ(read_wal(store, "p0/dvs").records.size(), 1u);
    store.wipe();
    EXPECT_EQ(store.load("p0/dvs"), std::nullopt);
  }
  std::filesystem::remove_all(root);
}

// ----- the one-file journal (FileStableStore) -------------------------------

namespace fs = std::filesystem;

/// A fresh directory under the test temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path root = fs::path(::testing::TempDir()) / name;
  fs::remove_all(root);
  return root.string();
}

Bytes text(const std::string& s) {
  Bytes out;
  for (const char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

Bytes slurp_file(const std::string& path) {
  Bytes out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    out.push_back(static_cast<std::byte>(c));
  }
  std::fclose(f);
  return out;
}

void spit_file(const std::string& path, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// What a store holds, key by key (an absent key has no entry).
using KeyState = std::map<std::string, Bytes>;

const std::vector<std::string> kJournalKeys = {"p0/vs", "p0/dvs", "p0/to"};

KeyState state_of(const StableStore& store) {
  KeyState out;
  for (const std::string& k : kJournalKeys) {
    if (std::optional<Bytes> v = store.load(k); v.has_value()) out[k] = *v;
  }
  return out;
}

/// One scripted operation: append or replace `data` at `key`, then maybe
/// sync (a wake boundary).
struct ScriptOp {
  std::string key;
  bool replace = false;
  std::string data;
  bool sync = false;
};

/// Appends and replaces interleaved over three keys. Runs of appends to one
/// key inside a wake merge into one record; replaces land mid-run too.
std::vector<ScriptOp> journal_script() {
  return {
      {"p0/vs", true, "V0", false},    {"p0/dvs", true, "D0", false},
      {"p0/to", true, "T0", true},     {"p0/to", false, "a1", false},
      {"p0/to", false, "a2", false},   {"p0/dvs", false, "d1", true},
      {"p0/to", false, "a3", true},    {"p0/vs", false, "v1", false},
      {"p0/to", false, "a4", false},   {"p0/to", true, "T5", false},
      {"p0/to", false, "a6", true},    {"p0/dvs", true, "", true},
      {"p0/vs", false, "v2", false},   {"p0/dvs", false, "d2", false},
      {"p0/to", false, "a7", true},
  };
}

/// The state after each program-order prefix of the script (0..N ops).
std::vector<KeyState> prefix_states(const std::vector<ScriptOp>& script) {
  std::vector<KeyState> out{KeyState{}};
  KeyState cur;
  for (const ScriptOp& op : script) {
    Bytes& v = cur[op.key];
    if (op.replace) v.clear();
    const Bytes d = text(op.data);
    v.insert(v.end(), d.begin(), d.end());
    out.push_back(cur);
  }
  return out;
}

/// Runs the script through a FileStableStore at `root`; returns the file.
Bytes write_script(const std::string& root, const std::vector<ScriptOp>& ops) {
  FileStableStore store(root);
  for (const ScriptOp& op : ops) {
    if (op.replace) {
      store.replace(op.key, text(op.data));
    } else {
      store.append(op.key, text(op.data));
    }
    if (op.sync) store.sync();
  }
  EXPECT_EQ(store.rewrites(), 0u) << "the script must not trigger a reclaim";
  store.sync();
  return slurp_file(store.journal_path());
}

/// Reopens a damaged journal and checks the crash-prefix contract: every
/// key holds what one common program-order prefix left it, and a record
/// appended by the next incarnation is visible to the one after that.
void expect_prefix_then_append(const std::string& root,
                               const std::vector<KeyState>& prefixes,
                               const std::string& where) {
  KeyState recovered;
  {
    FileStableStore store(root);
    recovered = state_of(store);
    store.append("p0/to", text("new"));
  }
  ASSERT_NE(std::find(prefixes.begin(), prefixes.end(), recovered),
            prefixes.end())
      << where << ": recovered state is no program-order prefix";
  KeyState want = recovered;
  const Bytes marker = text("new");
  want["p0/to"].insert(want["p0/to"].end(), marker.begin(), marker.end());
  FileStableStore again(root);
  ASSERT_EQ(state_of(again), want)
      << where << ": a record appended after the crash was lost";
}

TEST(WalFuzzTest, JournalTruncatedAtEveryByteRecoversAProgramOrderPrefix) {
  const std::string root = fresh_dir("dvs_journal_truncate");
  const std::vector<ScriptOp> script = journal_script();
  const std::vector<KeyState> prefixes = prefix_states(script);
  const Bytes full = write_script(root, script);
  const std::string path = root + "/" + FileStableStore::kJournalFile;
  {
    FileStableStore store(root);
    EXPECT_EQ(state_of(store), prefixes.back());
    EXPECT_FALSE(store.trimmed_torn_tail());
  }
  std::size_t trimmed = 0;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    spit_file(path, Bytes(full.begin(),
                          full.begin() + static_cast<std::ptrdiff_t>(len)));
    {
      FileStableStore probe(root);
      if (probe.trimmed_torn_tail()) ++trimmed;
      EXPECT_LE(probe.file_bytes(), len);
    }
    expect_prefix_then_append(root, prefixes, "len=" + std::to_string(len));
  }
  // Most cuts land mid-record; only record boundaries are clean.
  EXPECT_GT(trimmed, full.size() / 2);
  fs::remove_all(root);
}

TEST(WalFuzzTest, JournalBitFlipAnywhereRecoversAProgramOrderPrefix) {
  const std::string root = fresh_dir("dvs_journal_flip");
  const std::vector<ScriptOp> script = journal_script();
  const std::vector<KeyState> prefixes = prefix_states(script);
  const Bytes full = write_script(root, script);
  const std::string path = root + "/" + FileStableStore::kJournalFile;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes damaged = full;
      damaged[pos] ^= static_cast<std::byte>(1u << bit);
      spit_file(path, damaged);
      expect_prefix_then_append(
          root, prefixes,
          "pos=" + std::to_string(pos) + " bit=" + std::to_string(bit));
    }
  }
  fs::remove_all(root);
}

TEST(StableStoreTest, FileStoreBuffersUntilSyncInOneFile) {
  const std::string root = fresh_dir("dvs_journal_buffer");
  FileStableStore store(root);
  Wal wal(store, "p0/to");
  for (int i = 0; i < 100; ++i) wal.append(1, [i](Writer& w) { w.u64(i); });
  store.replace("p0/vs", text("epoch"));
  // Nothing reaches the file before sync(), yet load() sees every record.
  EXPECT_EQ(store.file_bytes(), 0u);
  EXPECT_EQ(fs::file_size(store.journal_path()), 0u);
  EXPECT_EQ(read_wal(store, "p0/to").records.size(), 100u);
  EXPECT_EQ(store.load("p0/vs"), text("epoch"));
  const std::size_t data = store.load("p0/to")->size() + 5;
  store.sync();
  // One directory entry, and the 100 adjacent appends became one record:
  // framing plus two key names cost well under a record per append.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(root)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_EQ(fs::file_size(store.journal_path()), store.file_bytes());
  EXPECT_LT(store.file_bytes(), data + 48);
  // Per-wake appends each cost one small record: the key is named once.
  const std::uint64_t before = store.file_bytes();
  for (int i = 0; i < 50; ++i) {
    store.append("p0/to", text("x"));
    store.sync();
  }
  EXPECT_LE(store.file_bytes() - before, 50u * 9);
  store.sync();  // nothing pending: no write
  EXPECT_EQ(fs::file_size(store.journal_path()), store.file_bytes());
  fs::remove_all(root);
}

TEST(StableStoreTest, FileStoreReclaimsOnlyInASyncThatCarriesAReplace) {
  const std::string root = fresh_dir("dvs_journal_reclaim");
  KeyState model;
  {
    FileStableStore store(root);
    // A stable view: appends only. The file only grows; nothing is dead.
    for (int i = 0; i < 200; ++i) {
      const std::string& k = kJournalKeys[static_cast<std::size_t>(i) % 3];
      const Bytes d = text("append-" + std::to_string(i));
      store.append(k, d);
      model[k].insert(model[k].end(), d.begin(), d.end());
      if (i % 7 == 0) store.sync();
    }
    store.sync();
    EXPECT_EQ(store.rewrites(), 0u);
    EXPECT_EQ(store.file_bytes(), store.live_bytes());
    // Replaces make history dead; the sync that carries one reclaims once
    // dead bytes exceed live bytes, and never leaves more dead than live.
    Rng rng(7);
    bool replaced = false;  // the pending records include a replace
    for (int i = 0; i < 300; ++i) {
      const std::string& k = kJournalKeys[rng.below(3)];
      const Bytes d = text(std::string(1 + rng.below(40), 'r'));
      if (rng.chance(0.2)) {
        store.replace(k, d);
        model[k] = d;
        replaced = true;
      } else {
        store.append(k, d);
        model[k].insert(model[k].end(), d.begin(), d.end());
      }
      EXPECT_EQ(state_of(store), model) << "op " << i;
      if (!rng.chance(0.3)) continue;
      const std::uint64_t rewrites = store.rewrites();
      const std::uint64_t dead = store.file_bytes() - store.live_bytes();
      store.sync();
      const std::uint64_t dead_now = store.file_bytes() - store.live_bytes();
      if (replaced) {
        EXPECT_LE(dead_now, store.live_bytes()) << "op " << i;
      } else {
        // Appends alone never rewrite and never make anything dead.
        EXPECT_EQ(store.rewrites(), rewrites) << "op " << i;
        EXPECT_EQ(dead_now, dead) << "op " << i;
      }
      replaced = false;
    }
    store.sync();
    EXPECT_GT(store.rewrites(), 0u);
    EXPECT_EQ(fs::file_size(store.journal_path()), store.file_bytes());
  }
  FileStableStore reopened(root);
  EXPECT_EQ(state_of(reopened), model);
  EXPECT_FALSE(reopened.trimmed_torn_tail());
  fs::remove_all(root);
}

TEST(StableStoreTest, FileStoreRefusesTheOlderPerKeyLayout) {
  const std::string root = fresh_dir("dvs_journal_old_layout");
  fs::create_directories(root);
  spit_file(root + "/p0_dvs_.wal", Wal::frame(1, [](Writer& w) { w.u64(1); }));
  try {
    FileStableStore store(root);
    ADD_FAILURE() << "a per-key *_.wal directory was opened";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(root), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("p0_dvs_.wal"), std::string::npos)
        << e.what();
  }
  fs::remove_all(root);
}

TEST(StableStoreTest, WalCompactionResetsGrowth) {
  MemStableStore store;
  Wal wal(store, "k");
  for (int i = 0; i < 8; ++i) wal.append(1, [i](Writer& w) { w.u64(i); });
  EXPECT_EQ(wal.records_since_snapshot(), 8u);
  const std::size_t grown = store.load("k")->size();
  wal.snapshot(5, [](Writer& w) { w.u64(99); });
  EXPECT_EQ(wal.records_since_snapshot(), 0u);
  EXPECT_LT(store.load("k")->size(), grown);
  const WalContents c = read_wal(store, "k");
  ASSERT_EQ(c.records.size(), 1u);
  EXPECT_EQ(c.records[0].type, 5u);
  EXPECT_EQ(store.stats().replaces, 1u);
}

// ----- layer journals from a real run -------------------------------------

/// Runs a persistent 3-process cluster with client load before and after a
/// mid-run partition, so all journals (epoch bumps, act/amb/attempt/register,
/// content/order/confirm, the TO establishment snapshots) carry real
/// traffic, and the TO logs run to hundreds of records past their last
/// snapshot.
tosys::Cluster& persistent_cluster() {
  static tosys::Cluster* cluster = [] {
    tosys::ClusterConfig cfg;
    cfg.n_processes = 3;
    cfg.persistence = true;
    auto* c = new tosys::Cluster(cfg, 1337);
    c->start();
    c->run_for(300 * kMillisecond);
    std::uint64_t uid = 0;
    auto load = [&](std::uint64_t commands) {
      for (std::uint64_t i = 0; i < commands; ++i) {
        ++uid;
        const ProcessId p{static_cast<std::uint32_t>(uid % 3)};
        c->bcast(p, AppMsg{uid, p, "m"});
        c->run_for(kMillisecond);
      }
      c->run_for(500 * kMillisecond);
    };
    load(300);
    c->net().pause(ProcessId{2});  // force a view change → epoch bumps
    c->run_for(2 * kSecond);
    c->net().resume(ProcessId{2});
    c->run_for(2 * kSecond);
    load(300);
    return c;
  }();
  return *cluster;
}

TEST(LayerJournalTest, RecoverEqualsLiveDurableState) {
  tosys::Cluster& c = persistent_cluster();
  ASSERT_TRUE(c.oracle().ok());
  auto* store = dynamic_cast<MemStableStore*>(c.store());
  ASSERT_NE(store, nullptr);
  for (ProcessId p : c.universe()) {
    const std::string id = p.to_string();
    const std::uint64_t epoch = vsys::VsNode::recover_epoch(*store, id + "/vs");
    EXPECT_GT(epoch, 0u) << id;  // views were installed, epochs journaled
    // DVS: the journal is append-only between compactions while the live
    // automaton garbage-collects amb/attempted/reg — so the recovered state
    // is a *superset* of the live durable knowledge (safe: Invariants
    // 4.1/4.2 quantify over everything ever attempted; extra entries only
    // make the restarted node more conservative). act itself is max-merged
    // and must match exactly.
    const impl::DvsDurableState dvs =
        dvsys::DvsNode::recover(*store, id + "/dvs", p, c.v0());
    const impl::DvsDurableState live =
        c.dvs_node(p).automaton().durable_state();
    EXPECT_EQ(dvs.act, live.act) << id;
    for (const auto& [g, v] : live.amb) {
      auto it = dvs.amb.find(g);
      ASSERT_NE(it, dvs.amb.end()) << id;
      EXPECT_EQ(it->second, v) << id;
    }
    for (const auto& [g, v] : live.attempted) {
      auto it = dvs.attempted.find(g);
      ASSERT_NE(it, dvs.attempted.end()) << id;
      EXPECT_EQ(it->second, v) << id;
    }
    for (const ViewId& g : live.reg) EXPECT_TRUE(dvs.reg.contains(g)) << id;
    const toimpl::ToDurableState to =
        tosys::ToNode::recover(*store, id + "/to");
    EXPECT_EQ(to, c.to_node(p).automaton().durable_state()) << id;
    EXPECT_FALSE(to.order.empty()) << id;  // the load actually got ordered
    // Appends only since the last establishment: hundreds of records.
    EXPECT_GT(read_wal(*store, id + "/to").records.size(), 300u) << id;
  }
}

TEST(LayerJournalTest, DuplicatedLogsReplayToSameState) {
  tosys::Cluster& c = persistent_cluster();
  auto* store = dynamic_cast<MemStableStore*>(c.store());
  ASSERT_NE(store, nullptr);
  for (const auto& [key, raw] : store->contents()) {
    // Whole-log doubling (the log replayed twice end-to-end) and in-place
    // per-record doubling (every append written twice) — both are legal
    // under idempotent replay.
    Bytes doubled = raw;
    doubled.insert(doubled.end(), raw.begin(), raw.end());
    Bytes per_record;
    for (const WalRecord& r : read_wal(raw).records) {
      const Bytes f = reframe(r);
      per_record.insert(per_record.end(), f.begin(), f.end());
      per_record.insert(per_record.end(), f.begin(), f.end());
    }
    MemStableStore dup;
    dup.poke(key, doubled);
    MemStableStore dup2;
    dup2.poke(key, per_record);

    const ProcessId p{static_cast<std::uint32_t>(key[1] - '0')};
    if (key.ends_with("/vs")) {
      const std::uint64_t want = vsys::VsNode::recover_epoch(*store, key);
      EXPECT_EQ(vsys::VsNode::recover_epoch(dup, key), want) << key;
      EXPECT_EQ(vsys::VsNode::recover_epoch(dup2, key), want) << key;
    } else if (key.ends_with("/dvs")) {
      const impl::DvsDurableState want =
          dvsys::DvsNode::recover(*store, key, p, c.v0());
      EXPECT_EQ(dvsys::DvsNode::recover(dup, key, p, c.v0()), want) << key;
      EXPECT_EQ(dvsys::DvsNode::recover(dup2, key, p, c.v0()), want) << key;
    } else if (key.ends_with("/to")) {
      const toimpl::ToDurableState want = tosys::ToNode::recover(*store, key);
      EXPECT_EQ(tosys::ToNode::recover(dup, key), want) << key;
      EXPECT_EQ(tosys::ToNode::recover(dup2, key), want) << key;
    }
  }
}

TEST(LayerJournalTest, CorruptedLayerLogsRecoverCleanPrefixes) {
  tosys::Cluster& c = persistent_cluster();
  auto* store = dynamic_cast<MemStableStore*>(c.store());
  ASSERT_NE(store, nullptr);
  // Flip one byte near the end of each log: recover() must not throw and
  // must produce *a* valid durable state (an older prefix of the truth).
  for (const auto& [key, raw] : store->contents()) {
    if (raw.empty()) continue;
    Bytes damaged = raw;
    damaged[raw.size() - 3] ^= static_cast<std::byte>(0x40);
    MemStableStore bad;
    bad.poke(key, damaged);
    const ProcessId p{static_cast<std::uint32_t>(key[1] - '0')};
    if (key.ends_with("/vs")) {
      ASSERT_NO_THROW((void)vsys::VsNode::recover_epoch(bad, key)) << key;
    } else if (key.ends_with("/dvs")) {
      impl::DvsDurableState got;
      ASSERT_NO_THROW(got = dvsys::DvsNode::recover(bad, key, p, c.v0()))
          << key;
      // The recovered prefix can only know a subset of what the full log
      // knows (registrations/attempts only ever grow).
      const impl::DvsDurableState full =
          dvsys::DvsNode::recover(*store, key, p, c.v0());
      for (const ViewId& g : got.reg) EXPECT_TRUE(full.reg.contains(g)) << key;
      EXPECT_LE(got.attempted.size(), full.attempted.size()) << key;
    } else if (key.ends_with("/to")) {
      toimpl::ToDurableState got;
      ASSERT_NO_THROW(got = tosys::ToNode::recover(bad, key)) << key;
      const toimpl::ToDurableState full = tosys::ToNode::recover(*store, key);
      EXPECT_LE(got.nextconfirm, full.nextconfirm) << key;
      EXPECT_LE(got.order.size(), full.order.size()) << key;
    }
  }
}

// ----- exchange snapshot codec --------------------------------------------

TEST(ExchangeJournalTest, RestoreAttachRecoverRoundTrip) {
  dvsys::ExchangeDurableState state;
  const ViewId g2{2, ProcessId{0}};
  const ViewId g3{3, ProcessId{1}};
  state.peer_blobs[ProcessId{0}][g2] = "blob-a";
  state.peer_blobs[ProcessId{0}][g3] = "blob-b";
  state.peer_blobs[ProcessId{2}][g3] = std::string("\x00\xffz", 3);
  state.last_sent = dvsys::ExchangeDurableState::SentRecord{
      g3, make_process_set({0, 1, 2}), "sent-blob"};
  state.confirmed = dvsys::ExchangeDurableState::SentRecord{
      g2, make_process_set({0, 1}), "confirmed-blob"};

  MemStableStore store;
  dvsys::ExchangeDvsNode node(ProcessId{1}, {});
  node.restore(state);
  EXPECT_EQ(node.durable_state(), state);
  node.attach_storage(store, "p1/exchange");  // writes baseline snapshot
  EXPECT_EQ(dvsys::ExchangeDvsNode::recover(store, "p1/exchange"), state);

  // Empty store → default state.
  EXPECT_EQ(dvsys::ExchangeDvsNode::recover(store, "absent"),
            dvsys::ExchangeDurableState{});
}

}  // namespace
}  // namespace dvs::storage
