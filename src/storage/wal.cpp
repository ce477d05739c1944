#include "storage/wal.hpp"

#include <array>

namespace rb::storage {

namespace {

/// A frame claiming a payload larger than this is treated as corrupt, not
/// torn: it bounds how far a flipped size field can masquerade as "the rest
/// of the file is my payload".
constexpr std::uint32_t kMaxPayload = 1u << 28;

constexpr std::size_t kHeaderBytes = 8;  // crc u32 + size u32

/// Slicing-by-8 tables: tables[0] is the bytewise CRC32C table, and
/// tables[k] is tables[0] advanced over k more zero bytes, so eight
/// lookups advance the CRC over eight bytes at once.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);  // reflected poly
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

/// The little-endian u32 at `p`, assembled from bytes (endian-neutral).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32c(std::string_view data, std::uint32_t seed) {
  static const Crc32cTables t = make_crc32c_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > data_.size())
    throw CorruptionError{"ByteReader: truncated record"};
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(static_cast<unsigned char>(data_[pos_++]));
}

std::string_view ByteReader::bytes(std::size_t n) {
  need(n);
  const std::string_view v = data_.substr(pos_, n);
  pos_ += n;
  return v;
}

std::string encode_wal_record(const WalRecord& record) {
  std::string payload;
  payload.reserve(5 + record.key.size() + record.value.size());
  payload.push_back(static_cast<char>(record.type));
  append_u32(payload, static_cast<std::uint32_t>(record.key.size()));
  payload += record.key;
  payload += record.value;

  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  append_u32(frame, crc32c(payload));
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  return frame;
}

WalWriter::WalWriter(Device& device, std::string file)
    : device_{device}, file_{std::move(file)} {}

void WalWriter::append(const WalRecord& record) {
  const std::string frame = encode_wal_record(record);
  device_.append(file_, frame);
  ++appended_;
  appended_bytes_ += frame.size();
}

std::uint64_t WalWriter::sync() {
  const std::uint64_t pending = appended_ - synced_;
  if (pending == 0) return 0;
  device_.sync(file_);
  synced_ = appended_;
  return pending;
}

WalReplay replay_wal(const Device& device, const std::string& file) {
  WalReplay out;
  if (!device.exists(file)) return out;
  const std::string data = device.read(file);
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t remaining = data.size() - pos;
    if (remaining < kHeaderBytes) {
      out.tail = WalTail::kTorn;
      break;
    }
    ByteReader header{std::string_view{data}.substr(pos, kHeaderBytes)};
    const std::uint32_t crc = header.u32();
    const std::uint32_t size = header.u32();
    if (size > kMaxPayload) {
      out.tail = WalTail::kCorrupt;
      break;
    }
    if (remaining - kHeaderBytes < size) {
      out.tail = WalTail::kTorn;
      break;
    }
    const std::string_view payload =
        std::string_view{data}.substr(pos + kHeaderBytes, size);
    if (crc32c(payload) != crc) {
      out.tail = WalTail::kCorrupt;
      break;
    }
    WalRecord record;
    try {
      ByteReader body{payload};
      const std::uint8_t type = body.u8();
      if (type != static_cast<std::uint8_t>(WalRecord::Type::kPut) &&
          type != static_cast<std::uint8_t>(WalRecord::Type::kErase)) {
        throw CorruptionError{"wal: unknown record type"};
      }
      record.type = static_cast<WalRecord::Type>(type);
      const std::uint32_t klen = body.u32();
      record.key = std::string{body.bytes(klen)};
      record.value = std::string{body.bytes(body.remaining())};
    } catch (const CorruptionError&) {
      // Structurally invalid under a valid CRC cannot be a torn write.
      out.tail = WalTail::kCorrupt;
      break;
    }
    out.records.push_back(std::move(record));
    pos += kHeaderBytes + size;
    out.valid_bytes = pos;
  }
  out.dropped_bytes = data.size() - out.valid_bytes;
  if (pos >= data.size()) out.tail = WalTail::kClean;
  return out;
}

}  // namespace rb::storage
