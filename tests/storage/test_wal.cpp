#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "storage/device.hpp"
#include "storage/manifest.hpp"

namespace rb::storage {
namespace {

/// Bitwise CRC32C (reflected polynomial 0x82F63B78), one bit at a time:
/// the reference the table-driven crc32c must match.
std::uint32_t crc32c_bitwise(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (const char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / published CRC32C test vectors.
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c(ascending), 0x46DD794Eu);
}

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string data = "hello world, this is a wal frame";
  const auto whole = crc32c(data);
  const auto chained = crc32c(data.substr(7), crc32c(data.substr(0, 7)));
  EXPECT_EQ(whole, chained);

  // Every length 0-64 at start offsets 0-7, so the eight-byte loop and its
  // tail both run at every alignment.
  std::string buffer;
  for (int i = 0; i < 72; ++i) {
    buffer.push_back(static_cast<char>(i * 131 + 7));
  }
  const std::string_view view{buffer};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto piece = view.substr(offset, len);
      EXPECT_EQ(crc32c(piece), crc32c_bitwise(piece))
          << "offset " << offset << " length " << len;
    }
  }
  // Every split point of one 64-byte buffer, chained through the seed.
  const auto all = view.substr(0, 64);
  const std::uint32_t expected = crc32c_bitwise(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(crc32c(all.substr(split), crc32c(all.substr(0, split))),
              expected)
        << "split " << split;
  }
}

TEST(ByteReader, ReadsAndBoundsChecks) {
  std::string buffer;
  append_u32(buffer, 0xDEADBEEFu);
  append_u64(buffer, 0x0123456789ABCDEFull);
  buffer += "xy";
  ByteReader in{buffer};
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.bytes(2), "xy");
  EXPECT_TRUE(in.exhausted());
  EXPECT_THROW(in.u8(), CorruptionError);
}

TEST(Wal, AppendSyncReplayRoundTrip) {
  MemDevice device;
  WalWriter writer{device, "wal"};
  writer.append({WalRecord::Type::kPut, "a", "1"});
  writer.append({WalRecord::Type::kErase, "b", ""});
  EXPECT_EQ(writer.sync(), 2u);
  writer.append({WalRecord::Type::kPut, "c", "3"});
  EXPECT_EQ(writer.sync(), 1u);
  EXPECT_EQ(writer.sync(), 0u);  // nothing pending: no device op
  EXPECT_EQ(writer.appended_records(), 3u);
  EXPECT_EQ(writer.synced_records(), 3u);

  const WalReplay replay = replay_wal(device, "wal");
  EXPECT_EQ(replay.tail, WalTail::kClean);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0], (WalRecord{WalRecord::Type::kPut, "a", "1"}));
  EXPECT_EQ(replay.records[1], (WalRecord{WalRecord::Type::kErase, "b", ""}));
  EXPECT_EQ(replay.records[2], (WalRecord{WalRecord::Type::kPut, "c", "3"}));
  EXPECT_EQ(replay.valid_bytes, device.size("wal"));
  EXPECT_EQ(replay.dropped_bytes, 0u);
}

TEST(Wal, MissingFileReadsAsEmptyCleanLog) {
  MemDevice device;
  const WalReplay replay = replay_wal(device, "nope");
  EXPECT_EQ(replay.tail, WalTail::kClean);
  EXPECT_TRUE(replay.records.empty());
}

TEST(Wal, TornTailIsDetectedAndDropped) {
  MemDevice device;
  WalWriter writer{device, "wal"};
  writer.append({WalRecord::Type::kPut, "key", "value"});
  writer.sync();
  const std::uint64_t valid = device.size("wal");
  // A torn write: only part of the next frame reached the device.
  const std::string frame =
      encode_wal_record({WalRecord::Type::kPut, "torn", "tail"});
  device.append("wal", std::string_view{frame}.substr(0, frame.size() - 3));

  const WalReplay replay = replay_wal(device, "wal");
  EXPECT_EQ(replay.tail, WalTail::kTorn);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].key, "key");
  EXPECT_EQ(replay.valid_bytes, valid);
  EXPECT_EQ(replay.dropped_bytes, frame.size() - 3);
}

TEST(Wal, EveryTearOffsetReplaysTheValidPrefix) {
  // Cut a two-record log at every byte boundary: replay must return records
  // 0, 1 or 2 depending on where the cut lands — never garbage, never throw.
  const std::string f1 = encode_wal_record({WalRecord::Type::kPut, "k1", "v1"});
  const std::string f2 = encode_wal_record({WalRecord::Type::kPut, "k2", "v2"});
  const std::string log = f1 + f2;
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    MemDevice device;
    device.append("wal", std::string_view{log}.substr(0, cut));
    const WalReplay replay = replay_wal(device, "wal");
    const std::size_t expected =
        cut >= log.size() ? 2 : (cut >= f1.size() ? 1 : 0);
    EXPECT_EQ(replay.records.size(), expected) << "cut at " << cut;
    EXPECT_EQ(replay.tail,
              cut == log.size() || cut == f1.size() || cut == 0
                  ? WalTail::kClean
                  : WalTail::kTorn)
        << "cut at " << cut;
    EXPECT_EQ(replay.valid_bytes + replay.dropped_bytes, cut);
  }
}

TEST(Wal, CompleteFrameWithBadCrcIsCorruptNotTorn) {
  MemDevice device;
  WalWriter writer{device, "wal"};
  writer.append({WalRecord::Type::kPut, "aa", "bb"});
  writer.append({WalRecord::Type::kPut, "cc", "dd"});
  writer.sync();
  // Flip a payload bit of the *first* frame: its CRC now fails while the
  // frame is structurally complete — corruption, and the valid prefix ends
  // before it.
  device.corrupt_byte("wal", 9, 3);
  const WalReplay replay = replay_wal(device, "wal");
  EXPECT_EQ(replay.tail, WalTail::kCorrupt);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
}

TEST(Wal, ImplausibleSizeFieldIsCorrupt) {
  MemDevice device;
  std::string frame;
  append_u32(frame, 0x12345678u);  // crc (never checked: size is insane)
  append_u32(frame, 0xFFFFFFFFu);  // size far above kMaxPayload
  frame += "junk";
  device.append("wal", frame);
  const WalReplay replay = replay_wal(device, "wal");
  EXPECT_EQ(replay.tail, WalTail::kCorrupt);
  EXPECT_TRUE(replay.records.empty());
}

TEST(Manifest, EncodeDecodeRoundTrip) {
  ManifestData data;
  data.next_file_number = 42;
  data.wal_file = wal_file_name(7);
  data.levels = {{sst_file_name(3), sst_file_name(5)}, {}, {sst_file_name(1)}};
  EXPECT_EQ(decode_manifest(encode_manifest(data)), data);
}

TEST(Manifest, DetectsCorruption) {
  const ManifestData data{.next_file_number = 9,
                          .wal_file = wal_file_name(2),
                          .levels = {{sst_file_name(1)}}};
  std::string bytes = encode_manifest(data);
  bytes[bytes.size() / 2] ^= 0x10;
  EXPECT_THROW(decode_manifest(bytes), CorruptionError);
  EXPECT_THROW(decode_manifest("not a manifest"), CorruptionError);
  EXPECT_THROW(decode_manifest(""), CorruptionError);
}

TEST(Manifest, WriteInstallsAtomicallyAndReadsBack) {
  MemDevice device;
  EXPECT_FALSE(read_manifest(device).has_value());
  ManifestData data;
  data.next_file_number = 3;
  data.wal_file = wal_file_name(1);
  write_manifest(device, data);
  EXPECT_FALSE(device.exists(kManifestTmpFile));
  ASSERT_TRUE(read_manifest(device).has_value());
  EXPECT_EQ(*read_manifest(device), data);
  // Replacement is durable across a lost page cache.
  data.next_file_number = 4;
  write_manifest(device, data);
  device.reopen();
  ASSERT_TRUE(read_manifest(device).has_value());
  EXPECT_EQ(read_manifest(device)->next_file_number, 4u);
}

TEST(Manifest, FileNamesSortInCreationOrder) {
  EXPECT_EQ(sst_file_name(1), "sst-0000000001.run");
  EXPECT_EQ(wal_file_name(12), "wal-0000000012.log");
  EXPECT_LT(sst_file_name(9), sst_file_name(10));
}

}  // namespace
}  // namespace rb::storage
