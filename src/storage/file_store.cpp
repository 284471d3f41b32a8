#include "storage/file_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "storage/wal.h"

namespace dvs::storage {

namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kName = 1;
constexpr std::uint8_t kAppend = 2;
constexpr std::uint8_t kReplace = 3;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("FileStableStore: " + what + ": " +
                           std::strerror(errno));
}

void put_varuint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

std::size_t varuint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Decodes a varuint at `pos` without reading past `end`.
bool get_varuint(const Bytes& in, std::size_t& pos, std::size_t end,
                 std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64 && pos < end; shift += 7) {
    const auto b = std::to_integer<std::uint8_t>(in[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

std::uint32_t get_u32(const Bytes& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[pos + i]))
         << (8 * i);
  }
  return v;
}

void read_at(int fd, std::byte* out, std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, out, size, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("read");
    out += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

}  // namespace

FileStableStore::FileStableStore(std::string root) : root_(std::move(root)) {
  fs::create_directories(root_);
  for (const auto& entry : fs::directory_iterator(root_)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.size() > 5 &&
        name.ends_with("_.wal")) {
      throw std::runtime_error(
          "FileStableStore: " + root_ +
          " holds per-key *_.wal journals of the older layout (e.g. " + name +
          "); this build keeps one journal file per directory and cannot "
          "read them");
    }
  }
  // A crash mid-reclaim leaves the half-written copy beside the journal;
  // the rename never happened, so the journal itself is intact.
  std::error_code ec;
  fs::remove(journal_path() + ".tmp", ec);
  fd_ = ::open(journal_path().c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) fail("cannot open " + journal_path());
  try {
    open_journal();
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

FileStableStore::~FileStableStore() {
  try {
    sync();
  } catch (const std::exception&) {
    // Nothing to report to from a destructor; the records are lost exactly
    // as a crash here would lose them.
  }
  ::close(fd_);
}

std::string FileStableStore::journal_path() const {
  return root_ + "/" + kJournalFile;
}

void FileStableStore::open_journal() {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) fail("stat " + journal_path());
  Bytes in(static_cast<std::size_t>(st.st_size));
  read_at(fd_, in.data(), in.size(), 0);
  // The clean prefix ends at the first record whose framing, CRC or key
  // binding does not verify — the same rule as read_wal, plus the index's
  // own consistency (names bind dense ids in order; data names a bound id).
  std::size_t pos = 0;
  while (pos < in.size()) {
    const std::size_t start = pos;
    if (std::to_integer<std::uint8_t>(in[pos]) != kWalMagic ||
        pos + 2 > in.size()) {
      break;
    }
    const auto kind = std::to_integer<std::uint8_t>(in[pos + 1]);
    pos += 2;
    std::uint64_t len = 0;
    if (!get_varuint(in, pos, in.size(), len) || len > in.size() - pos ||
        in.size() - pos - len < 4) {
      break;
    }
    const std::size_t end = pos + static_cast<std::size_t>(len);
    if (crc32(in.data() + start, end - start) != get_u32(in, end)) break;
    std::uint64_t id = 0;
    if (!get_varuint(in, pos, end, id)) break;
    const std::uint64_t framed = end + 4 - start;
    if (kind == kName) {
      const std::string name(reinterpret_cast<const char*>(in.data() + pos),
                             end - pos);
      if (id != keys_.size() || ids_.contains(name)) break;
      ids_.emplace(name, static_cast<std::uint32_t>(id));
      keys_.push_back(Key{name, true, false, {}, 0});
      live_bytes_ += framed;
    } else if ((kind == kAppend || kind == kReplace) && id < keys_.size()) {
      index(static_cast<std::uint32_t>(id), kind, pos, end - pos, framed);
    } else {
      break;
    }
    pos = end + 4;
    file_bytes_ = pos;
  }
  if (file_bytes_ < in.size()) {
    // Appending after a torn tail would hide every later record from the
    // next scan; cut the file back to its clean prefix first.
    if (::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
      fail("truncate " + journal_path());
    }
    trimmed_ = true;
  }
}

void FileStableStore::index(std::uint32_t key, std::uint8_t kind,
                            std::uint64_t data_offset, std::uint64_t data_size,
                            std::uint64_t framed) {
  Key& k = keys_[key];
  if (kind == kReplace) {
    live_bytes_ -= k.live;
    k.live = 0;
    k.extents.clear();
  }
  if (data_size > 0) k.extents.push_back({data_offset, data_size});
  k.durable = true;
  k.live += framed;
  live_bytes_ += framed;
}

std::uint32_t FileStableStore::key_id(const std::string& key) {
  const auto [it, inserted] =
      ids_.try_emplace(key, static_cast<std::uint32_t>(keys_.size()));
  if (inserted) keys_.push_back(Key{key, false, false, {}, 0});
  return it->second;
}

void FileStableStore::push(std::uint32_t key, std::uint8_t kind,
                           const Bytes& data) {
  // Merging with the adjacent operation on the same key keeps every file
  // prefix a program-order prefix: the pair lands (or is lost) as a unit.
  if (!pending_.empty() && pending_.back().key == key) {
    Op& last = pending_.back();
    if (kind == kReplace) {
      last.kind = kReplace;
      last.data = data;
    } else {
      last.data.insert(last.data.end(), data.begin(), data.end());
    }
    return;
  }
  pending_.push_back(Op{key, kind, data});
}

void FileStableStore::do_append(const std::string& key, const Bytes& data) {
  push(key_id(key), kAppend, data);
}

void FileStableStore::do_replace(const std::string& key, const Bytes& data) {
  push(key_id(key), kReplace, data);
}

std::uint64_t FileStableStore::frame(Bytes& out, std::uint64_t base,
                                     std::uint8_t kind, std::uint32_t key,
                                     const std::byte* data, std::size_t size) {
  const std::size_t start = out.size();
  out.push_back(static_cast<std::byte>(kWalMagic));
  out.push_back(static_cast<std::byte>(kind));
  put_varuint(out, varuint_size(key) + size);
  put_varuint(out, key);
  const std::uint64_t data_offset = base + out.size();
  out.insert(out.end(), data, data + size);
  const std::uint32_t crc = crc32(out.data() + start, out.size() - start);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>(crc >> (8 * i)));
  }
  return data_offset;
}

void FileStableStore::write_all(int fd, const Bytes& bytes) const {
  const std::byte* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("write " + journal_path());
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void FileStableStore::sync() {
  if (pending_.empty()) return;
  out_.clear();
  bool replaced = false;
  for (const Op& op : pending_) {
    Key& k = keys_[op.key];
    if (!k.named) {
      const std::size_t before = out_.size();
      frame(out_, file_bytes_, kName, op.key,
            reinterpret_cast<const std::byte*>(k.name.data()), k.name.size());
      k.named = true;
      live_bytes_ += out_.size() - before;
    }
    const std::size_t before = out_.size();
    const std::uint64_t at =
        frame(out_, file_bytes_, op.kind, op.key, op.data.data(), op.data.size());
    index(op.key, op.kind, at, op.data.size(), out_.size() - before);
    replaced = replaced || op.kind == kReplace;
  }
  pending_.clear();
  write_all(fd_, out_);
  file_bytes_ += out_.size();
  if (replaced && file_bytes_ - live_bytes_ > live_bytes_) reclaim();
}

void FileStableStore::append_durable(const Key& k, Bytes& out) const {
  if (k.extents.empty()) return;
  const std::uint64_t first = k.extents.front().offset;
  const std::uint64_t last = k.extents.back().offset + k.extents.back().size;
  Bytes span(static_cast<std::size_t>(last - first));
  read_at(fd_, span.data(), span.size(), first);
  for (const Extent& e : k.extents) {
    const auto* p = span.data() + (e.offset - first);
    out.insert(out.end(), p, p + e.size);
  }
}

void FileStableStore::reclaim() {
  // Every key keeps its name (ids stay dense, as the open scan requires);
  // every key that holds data becomes one replace record.
  const std::string tmp = journal_path() + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
             0644);
  if (fd < 0) fail("cannot open " + tmp);
  out_.clear();
  std::vector<Key> fresh;
  fresh.reserve(keys_.size());
  std::uint64_t live = 0;
  Bytes data;
  for (std::uint32_t id = 0; id < keys_.size(); ++id) {
    const Key& k = keys_[id];
    Key& nk = fresh.emplace_back(Key{k.name, true, k.durable, {}, 0});
    std::size_t before = out_.size();
    frame(out_, 0, kName, id, reinterpret_cast<const std::byte*>(k.name.data()),
          k.name.size());
    live += out_.size() - before;
    if (!k.durable) continue;
    data.clear();
    append_durable(k, data);
    before = out_.size();
    const std::uint64_t at =
        frame(out_, 0, kReplace, id, data.data(), data.size());
    if (!data.empty()) nk.extents.push_back({at, data.size()});
    nk.live = out_.size() - before;
    live += nk.live;
  }
  try {
    write_all(fd, out_);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::rename(tmp.c_str(), journal_path().c_str()) != 0) {
    ::close(fd);
    fail("rename " + tmp);
  }
  ::close(fd_);
  fd_ = fd;
  keys_ = std::move(fresh);
  file_bytes_ = out_.size();
  live_bytes_ = live;
  ++rewrites_;
}

void FileStableStore::wipe() {
  pending_.clear();
  keys_.clear();
  ids_.clear();
  if (::ftruncate(fd_, 0) != 0) fail("truncate " + journal_path());
  file_bytes_ = 0;
  live_bytes_ = 0;
}

std::optional<Bytes> FileStableStore::do_load(const std::string& key) const {
  const auto it = ids_.find(key);
  if (it == ids_.end()) return std::nullopt;
  const std::uint32_t id = it->second;
  const Key& k = keys_[id];
  // Pending records sit after the durable ones: a pending replace starts
  // the contents afresh, pending appends extend them.
  std::size_t from = 0;
  bool present = k.durable;
  bool replaced = false;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].key != id) continue;
    present = true;
    if (pending_[i].kind == kReplace) {
      from = i;
      replaced = true;
    }
  }
  if (!present) return std::nullopt;
  Bytes out;
  if (!replaced) append_durable(k, out);
  for (std::size_t i = from; i < pending_.size(); ++i) {
    if (pending_[i].key != id) continue;
    out.insert(out.end(), pending_[i].data.begin(), pending_[i].data.end());
  }
  return out;
}

}  // namespace dvs::storage
