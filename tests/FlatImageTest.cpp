//===- tests/FlatImageTest.cpp - Flat-image profile cache format -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The zero-copy persistence contract of core/FlatImage: a flat image
// round-trips a ProfileStoreCache bit-exactly whether it is mmapped or
// read through the buffered fallback, the mapping survives unlink,
// writer mutation (copy-on-write promotion) and a rewrite of its own
// path, the routing sections ride along, images carrying the retired
// int8 sidecar still open and answer the same, and every
// corruption mode — truncation, flipped section bytes, a tampered
// section table, a wrong kernel hash, a misaligned section, a retired
// section id, foreign magic — fails loudly with a diagnostic naming
// the problem instead of serving garbage.
//
//===----------------------------------------------------------------------===//

#include "core/FlatImage.h"
#include "core/ProfileStore.h"
#include "index/IndexService.h"
#include "kernels/SpectrumKernels.h"
#include "util/Hashing.h"
#include "util/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace kast;

namespace {

WeightedString randomString(const std::shared_ptr<TokenTable> &Table,
                            Rng &R, size_t Length, uint32_t Alphabet) {
  WeightedString S(Table);
  for (size_t I = 0; I < Length; ++I)
    S.append("t" + std::to_string(R.uniformInt(0, Alphabet - 1)),
             R.uniformInt(1, 16));
  return S;
}

ProfileStoreCache makeStoreCache(Rng &R, size_t N,
                                 const std::string &KernelName) {
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  ProfileStoreCache Cache;
  Cache.KernelName = KernelName;
  for (size_t I = 0; I < N; ++I) {
    WeightedString S = randomString(Table, R, R.uniformInt(1, 32), 6);
    Cache.Names.push_back("s" + std::to_string(I));
    Cache.Labels.push_back(I % 2 ? "odd" : "even");
    Cache.Store.append(Kernel.profile(S));
  }
  return Cache;
}

std::string tempImagePath(const std::string &Stem) {
  return testing::TempDir() + "/kast_" + Stem + ".kfi";
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

uint64_t readU64(const std::string &Bytes, size_t At) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(
             static_cast<unsigned char>(Bytes[At + static_cast<size_t>(I)]))
         << (8 * I);
  return V;
}

void writeU64(std::string &Bytes, size_t At, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Bytes[At + static_cast<size_t>(I)] =
        static_cast<char>((V >> (8 * I)) & 0xFF);
}

uint32_t readU32(const std::string &Bytes, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(
             static_cast<unsigned char>(Bytes[At + static_cast<size_t>(I)]))
         << (8 * I);
  return V;
}

/// Locates section \p Id in raw image bytes via the section table.
/// Returns the index of its 32-byte table entry, or npos.
size_t findTableEntry(const std::string &Bytes, FlatSectionId Id) {
  const uint32_t SectionCount = readU32(Bytes, 12);
  for (uint32_t I = 0; I < SectionCount; ++I) {
    const size_t Entry = 64 + static_cast<size_t>(I) * 32;
    if (readU32(Bytes, Entry) == static_cast<uint32_t>(Id))
      return Entry;
  }
  return std::string::npos;
}

/// Recomputes the header checksum (over bytes [0,48) plus the section
/// table) after a test deliberately patched a covered field — so the
/// corruption under test is reached instead of masked by the header
/// checksum check.
void fixHeaderSum(std::string &Bytes) {
  const uint32_t SectionCount = readU32(Bytes, 12);
  std::string Checked = Bytes.substr(0, 48) +
                        Bytes.substr(64, static_cast<size_t>(SectionCount) * 32);
  writeU64(Bytes, 48, checksumBytes(Checked.data(), Checked.size()));
}

void expectStoresBitExact(const ProfileStore &A, const ProfileStore &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.entryCount(), B.entryCount());
  EXPECT_EQ(A.hashes(), B.hashes());
  EXPECT_EQ(A.offsets(), B.offsets());
  for (size_t I = 0; I < A.entryCount(); ++I)
    EXPECT_EQ(std::bit_cast<uint64_t>(A.values()[I]),
              std::bit_cast<uint64_t>(B.values()[I]));
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(std::bit_cast<uint64_t>(A.selfDot(I)),
              std::bit_cast<uint64_t>(B.selfDot(I)));
    EXPECT_EQ(std::bit_cast<uint64_t>(A.norm(I)),
              std::bit_cast<uint64_t>(B.norm(I)));
  }
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(FlatImageTest, RoundTripsStoreBitExactly) {
  Rng R(70707);
  ProfileStoreCache Cache = makeStoreCache(R, 23, "blended");
  const std::string Path = tempImagePath("rt");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->KernelName, "blended");
  EXPECT_EQ(Loaded->Names, Cache.Names);
  EXPECT_EQ(Loaded->Labels, Cache.Labels);
  EXPECT_EQ(Loaded->Routing, nullptr);
  expectStoresBitExact(Loaded->Store, Cache.Store);
  EXPECT_TRUE(Loaded->Store.isFinalized());

  // Deep validation (full entry-section checksums) passes on an
  // intact file too.
  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Audited = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Audited.hasValue()) << Audited.message();
  expectStoresBitExact(Audited->Store, Cache.Store);
}

TEST(FlatImageTest, BufferedFallbackMatchesMappedRead) {
  Rng R(80808);
  ProfileStoreCache Cache = makeStoreCache(R, 11, "k");
  const std::string Path = tempImagePath("buffered");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());

  Expected<ProfileStoreCache> Mapped = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Mapped.hasValue()) << Mapped.message();
  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  Expected<ProfileStoreCache> Heap = readProfileStoreImageFile(Path, Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();

  EXPECT_EQ(Heap->KernelName, Mapped->KernelName);
  EXPECT_EQ(Heap->Names, Mapped->Names);
  EXPECT_EQ(Heap->Labels, Mapped->Labels);
  expectStoresBitExact(Heap->Store, Mapped->Store);
  // Both paths view their backing (mmap or heap) rather than copying
  // into owned arenas.
  EXPECT_TRUE(Mapped->Store.isMapped());
  EXPECT_TRUE(Heap->Store.isMapped());
}

TEST(FlatImageTest, RoutedImagesCarryNoRetiredSidecar) {
  Rng R(90909);
  ProfileStoreCache Corpus = makeStoreCache(R, 15, "k");
  // A routed shard exports its routing as arenas. The retired
  // shortlist fields are set and must leave no trace in the image: no
  // int8 sections, and the routing-meta slots they used stay zero.
  IndexService Service(Corpus.KernelName, {.Shards = 1});
  for (size_t I = 0; I < Corpus.Store.size(); ++I)
    Service.add(Corpus.Names.str(I), Corpus.Labels.str(I),
                Corpus.Store.materialize(I));
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 3;
  Route.RerankBudget = 6;
  Route.QuantizedShortlist = true;
  Service.rebuildRouting(Route, 1);
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  const ProfileStoreCache &Cache = Exported[0];
  ASSERT_NE(Cache.Routing, nullptr);
  const std::string Path = tempImagePath("sidecars");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());

  const std::string Bytes = readFileBytes(Path);
  EXPECT_EQ(readU32(Bytes, 8), 4u);
  EXPECT_EQ(findTableEntry(Bytes, FlatSectionId::RetiredQuantValues),
            std::string::npos);
  EXPECT_EQ(findTableEntry(Bytes, FlatSectionId::RetiredQuantScales),
            std::string::npos);
  const size_t Meta = findTableEntry(Bytes, FlatSectionId::RouteMeta);
  ASSERT_NE(Meta, std::string::npos);
  const size_t MetaAt = static_cast<size_t>(readU64(Bytes, Meta + 8));
  EXPECT_EQ(readU32(Bytes, MetaAt + 12), 0u); // reserved flags
  EXPECT_EQ(readU64(Bytes, MetaAt + 24), 0u); // reserved slot

  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_NE(Loaded->Routing, nullptr);
  EXPECT_EQ(Loaded->Routing->Covered, Cache.Routing->Covered);
  EXPECT_EQ(Loaded->Routing->Assignments, Cache.Routing->Assignments);
  expectStoresBitExact(Loaded->Store, Cache.Store);
}

TEST(FlatImageTest, EmptyStoreRoundTrips) {
  ProfileStoreCache Cache;
  Cache.KernelName = "k";
  const std::string Path = tempImagePath("empty");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->KernelName, "k");
  EXPECT_EQ(Loaded->Store.size(), 0u);
  EXPECT_EQ(Loaded->Store.entryCount(), 0u);
  EXPECT_TRUE(Loaded->Names.empty());
  EXPECT_TRUE(Loaded->Labels.empty());
}

//===----------------------------------------------------------------------===//
// Mapping lifetime
//===----------------------------------------------------------------------===//

TEST(FlatImageTest, MappingSurvivesUnlink) {
  Rng R(111213);
  ProfileStoreCache Cache = makeStoreCache(R, 9, "k");
  const std::string Path = tempImagePath("unlink");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();

  ASSERT_TRUE(std::filesystem::remove(Path));
  // Every byte remains readable through the (anonymous-after-unlink)
  // mapping.
  expectStoresBitExact(Loaded->Store, Cache.Store);
}

TEST(FlatImageTest, WriterPromotionLeavesTheImageUntouched) {
  Rng R(141516);
  ProfileStoreCache Cache = makeStoreCache(R, 12, "k");
  const std::string Path = tempImagePath("promote");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Before = readFileBytes(Path);

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_TRUE(Loaded->Store.isMapped());

  // First mutation promotes the store to owned arrays; the mapped
  // bytes (and hence the file and every other process sharing its
  // pages) stay untouched.
  KernelProfile Extra;
  Extra.add(42, 2.5);
  Extra.finalize();
  const size_t NewIndex = Loaded->Store.append(Extra);
  EXPECT_EQ(NewIndex, Cache.Store.size());
  EXPECT_FALSE(Loaded->Store.isMapped());
  EXPECT_EQ(Loaded->Store.size(), Cache.Store.size() + 1);
  EXPECT_EQ(Loaded->Store.view(NewIndex).Hashes[0], 42u);

  // The pre-promotion prefix is still bit-exact...
  for (size_t I = 0; I < Cache.Store.size(); ++I) {
    const ProfileView A = Loaded->Store.view(I);
    const ProfileView B = Cache.Store.view(I);
    ASSERT_EQ(A.Size, B.Size);
    for (size_t E = 0; E < A.Size; ++E) {
      EXPECT_EQ(A.Hashes[E], B.Hashes[E]);
      EXPECT_EQ(std::bit_cast<uint64_t>(A.Values[E]),
                std::bit_cast<uint64_t>(B.Values[E]));
    }
  }
  // ...and the file bytes never changed: a fresh open still sees the
  // original store.
  EXPECT_EQ(readFileBytes(Path), Before);
  Expected<ProfileStoreCache> Again = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  EXPECT_EQ(Again->Store.size(), Cache.Store.size());
  expectStoresBitExact(Again->Store, Cache.Store);

  // Appending an empty profile adds no entries, but it is a mutation
  // all the same: every array leaves the mapping.
  Again->Store.append(KernelProfile());
  EXPECT_FALSE(Again->Store.isMapped());
  EXPECT_EQ(Again->Store.size(), Cache.Store.size() + 1);
  EXPECT_EQ(Again->Store.entryCount(), Cache.Store.entryCount());
  EXPECT_EQ(readFileBytes(Path), Before);
}

TEST(FlatImageTest, RewritingAnImageFromItsOwnMappingIsSafe) {
  Rng R(151617);
  ProfileStoreCache Cache = makeStoreCache(R, 14, "k");
  const std::string Path = tempImagePath("rewrite_self");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Before = readFileBytes(Path);

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  // The writer copies section bytes straight out of the store, which
  // here aliases the very file being replaced: the write must not
  // truncate that file before it has read it.
  ASSERT_TRUE(writeProfileStoreImageFile(*Loaded, Path).ok());
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  EXPECT_EQ(readFileBytes(Path), Before);

  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Again = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Again.hasValue()) << Again.message();
  EXPECT_EQ(Again->Names, Cache.Names);
  EXPECT_EQ(Again->Labels, Cache.Labels);
  expectStoresBitExact(Again->Store, Cache.Store);
  // The store loaded before the rewrite still reads the old inode.
  expectStoresBitExact(Loaded->Store, Cache.Store);
}

TEST(FlatImageTest, WriterRejectsInconsistentColumnsAndKeepsTheOldImage) {
  Rng R(505152);
  ProfileStoreCache Cache = makeStoreCache(R, 6, "k");
  const std::string Path = tempImagePath("writer_validation");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Before = readFileBytes(Path);

  // Name/label tables that disagree with the store are a writer-side
  // error, not a corrupt file; the previous image stays in place.
  ProfileStoreCache Bad = makeStoreCache(R, 6, "k");
  Bad.Names = std::vector<std::string>{"only-one"};
  Status S = writeProfileStoreImageFile(Bad, Path);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("names"), std::string::npos) << S.message();
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  EXPECT_EQ(readFileBytes(Path), Before);
}

//===----------------------------------------------------------------------===//
// Failure modes
//===----------------------------------------------------------------------===//

TEST(FlatImageTest, RejectsTruncation) {
  Rng R(171819);
  ProfileStoreCache Cache = makeStoreCache(R, 7, "k");
  const std::string Path = tempImagePath("truncate");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 4096u);

  // Cuts inside the header, inside the section table, at a page
  // boundary, and one byte short of the end.
  for (size_t Cut : {size_t(10), size_t(80), size_t(4096), Bytes.size() - 1}) {
    const std::string Cropped = tempImagePath("truncate_cut");
    writeFileBytes(Cropped, Bytes.substr(0, Cut));
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Cropped);
    EXPECT_FALSE(E.hasValue()) << "cut at " << Cut;
    if (!E.hasValue()) {
      EXPECT_NE(E.message().find("truncated"), std::string::npos)
          << "cut at " << Cut << ": " << E.message();
    }
  }
}

TEST(FlatImageTest, RejectsSectionChecksumMismatch) {
  Rng R(202122);
  ProfileStoreCache Cache = makeStoreCache(R, 8, "k");
  const std::string Path = tempImagePath("badsum");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Good = readFileBytes(Path);

  // A flipped byte in an O(N) metadata section (self-dots) fails every
  // open, shallow or deep.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::SelfDots);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
  }

  // A flipped byte in an entry-sized section (hashes) is caught by
  // deep validation; the default open skips the O(entries) sweep on
  // the mapped path by design. (Under KAST_FORCE_BUFFERED the fallback
  // always deep-validates, so only the deep half applies.)
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::Hashes);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    // Flip a low bit of one hash value high enough up the lane to keep
    // per-profile hash ordering plausible either way; the checksum
    // check is what must fire.
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    FlatImageReadOptions Deep;
    Deep.DeepValidate = true;
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path, Deep);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
    if (std::getenv("KAST_FORCE_BUFFERED") == nullptr) {
      Expected<ProfileStoreCache> Shallow = readProfileStoreImageFile(Path);
      EXPECT_TRUE(Shallow.hasValue()) << Shallow.message();
    }
  }
}

TEST(FlatImageTest, RejectsHeaderTamperAndWrongKernelHash) {
  Rng R(232425);
  ProfileStoreCache Cache = makeStoreCache(R, 6, "k");
  const std::string Path = tempImagePath("header");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Good = readFileBytes(Path);

  // Tampering with the section table without fixing the header sum is
  // caught by the header checksum...
  {
    std::string Bad = Good;
    Bad[64 + 16] ^= 0x01; // Some section's byteSize field.
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("header checksum"), std::string::npos)
        << E.message();
  }
  // ...and a kernel hash that checks out against the header but not
  // the kernel-name bytes is caught by the cross-check.
  {
    std::string Bad = Good;
    writeU64(Bad, 16, readU64(Good, 16) ^ 0xDEADBEEFULL);
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("kernel-name hash"), std::string::npos)
        << E.message();
  }
}

TEST(FlatImageTest, RejectsMisalignedSection) {
  Rng R(262728);
  ProfileStoreCache Cache = makeStoreCache(R, 5, "k");
  const std::string Path = tempImagePath("misaligned");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  std::string Bad = readFileBytes(Path);

  const size_t Entry = findTableEntry(Bad, FlatSectionId::Offsets);
  ASSERT_NE(Entry, std::string::npos);
  writeU64(Bad, Entry + 8, readU64(Bad, Entry + 8) + 4);
  fixHeaderSum(Bad);
  writeFileBytes(Path, Bad);
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("aligned"), std::string::npos) << E.message();
}

TEST(FlatImageTest, RejectsCorruptCsrOffsets) {
  Rng R(293031);
  ProfileStoreCache Cache = makeStoreCache(R, 5, "k");
  const std::string Path = tempImagePath("csr");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  std::string Bad = readFileBytes(Path);

  // Break monotonicity of the offsets array and re-checksum the
  // section so validateCsrOffsets (not the checksum) fires.
  const size_t Entry = findTableEntry(Bad, FlatSectionId::Offsets);
  ASSERT_NE(Entry, std::string::npos);
  const size_t Offset = static_cast<size_t>(readU64(Bad, Entry + 8));
  const size_t Size = static_cast<size_t>(readU64(Bad, Entry + 16));
  writeU64(Bad, Offset + 8, readU64(Bad, Offset + 16) + 100);
  writeU64(Bad, Entry + 24, checksumBytes(Bad.data() + Offset, Size));
  fixHeaderSum(Bad);
  writeFileBytes(Path, Bad);
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("offsets"), std::string::npos) << E.message();
}

/// Hand-made CSR arrays, kept alive as the "backing" of the stores
/// and routing arenas that view them — the only way to build a store
/// that breaks the finalize() invariant, since append asserts it.
struct HandMadeArrays {
  std::vector<uint64_t> Offsets = {0};
  std::vector<uint64_t> Hashes;
  std::vector<double> Values;
  std::vector<double> SelfDots;
  std::vector<double> Norms;
  std::vector<uint32_t> Assignments;
  std::vector<uint64_t> Zero = {0};
  std::vector<uint64_t> ZeroZero = {0, 0};
};

/// A store over \p Profiles (one hash list each, every value 1.0)
/// whose arrays view \p A.
ProfileStore handMadeStore(const std::shared_ptr<HandMadeArrays> &A,
                           const std::vector<std::vector<uint64_t>> &Profiles) {
  for (const std::vector<uint64_t> &P : Profiles) {
    for (uint64_t H : P) {
      A->Hashes.push_back(H);
      A->Values.push_back(1.0);
    }
    A->Offsets.push_back(A->Hashes.size());
    A->SelfDots.push_back(static_cast<double>(P.size()));
    A->Norms.push_back(std::sqrt(static_cast<double>(P.size())));
  }
  return ProfileStore::fromMapped(A->Offsets.data(), A->Hashes.data(),
                                  A->Values.data(), A->SelfDots.data(),
                                  A->Norms.data(), Profiles.size(),
                                  A->Hashes.size(), A);
}

TEST(FlatImageTest, DeepValidateRejectsUnsortedProfileEntries) {
  const std::string Path = tempImagePath("unsorted_entries");
  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;

  ProfileStoreCache Good;
  Good.KernelName = "k";
  Good.Store =
      handMadeStore(std::make_shared<HandMadeArrays>(), {{1, 5}, {2}});
  Good.Names = std::vector<std::string>{"a", "b"};
  Good.Labels = std::vector<std::string>{"x", "y"};
  EXPECT_TRUE(Good.Store.isFinalized());
  ASSERT_TRUE(writeProfileStoreImageFile(Good, Path).ok());
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  expectStoresBitExact(Loaded->Store, Good.Store);

  // Unsorted or duplicated hashes within one profile break the
  // finalize() invariant the dot kernels rely on.
  const std::vector<std::vector<std::vector<uint64_t>>> BadShapes = {
      {{1, 5}, {5, 1}}, {{3, 3}}};
  for (const auto &Shape : BadShapes) {
    ProfileStoreCache Bad;
    Bad.KernelName = "k";
    Bad.Store = handMadeStore(std::make_shared<HandMadeArrays>(), Shape);
    for (size_t I = 0; I < Shape.size(); ++I) {
      Bad.Names.push_back("s" + std::to_string(I));
      Bad.Labels.push_back("l");
    }
    EXPECT_FALSE(Bad.Store.isFinalized());
    ASSERT_TRUE(writeProfileStoreImageFile(Bad, Path).ok());
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path, Deep);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("profile entries not sorted by hash"),
              std::string::npos)
        << E.message();
  }
}

TEST(FlatImageTest, DeepValidateRejectsUnsortedCentroidFeatures) {
  const std::string Path = tempImagePath("unsorted_centroid");
  auto A = std::make_shared<HandMadeArrays>();
  ProfileStoreCache Cache;
  Cache.KernelName = "k";
  Cache.Store = handMadeStore(std::make_shared<HandMadeArrays>(), {{1}, {2}});
  Cache.Names = std::vector<std::string>{"a", "b"};
  Cache.Labels = std::vector<std::string>{"x", "y"};

  // One centroid whose features are out of order, both profiles
  // assigned to it, and no postings (every feature pruned).
  auto R = std::make_shared<RoutingArenas>();
  R->Covered = 2;
  R->Centroids = handMadeStore(A, {{7, 3}});
  EXPECT_FALSE(R->Centroids.isFinalized());
  A->Assignments = {0, 0};
  R->Assignments = A->Assignments;
  R->ClusterBegin = A->ZeroZero;
  R->PostingBegin = A->Zero;
  R->Backing = A;
  Cache.Routing = R;
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());

  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path, Deep);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("centroid features not sorted by hash"),
            std::string::npos)
      << E.message();
}

TEST(FlatImageTest, FormatsRejectEachOtherWithPointers) {
  // A retired "KASTPROF" profile-cache header (magic, version 2,
  // kernel-name length and bytes, zero counts), padded past the image
  // header size so the magic check is what fires.
  std::string Bytes = "KASTPROF";
  Bytes += std::string("\x02\0\0\0", 4);
  Bytes += std::string("\x01\0\0\0", 4) + "k";
  Bytes += std::string(64, '\0');
  const std::string Path = testing::TempDir() + "/kast_cross.kpc";
  writeFileBytes(Path, Bytes);

  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("not a flat image"), std::string::npos)
      << E.message();
  EXPECT_NE(E.message().find("magic"), std::string::npos) << E.message();
}

TEST(FlatImageTest, RejectsRetiredRouteSection) {
  // Section id 11 carried an opaque routing blob in older v3 images;
  // the reader refuses it with a diagnostic rather than ignoring
  // routing the writer meant to persist.
  Rng R(535455);
  ProfileStoreCache Cache = makeStoreCache(R, 5, "k");
  const std::string Path = tempImagePath("retired_route");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  std::string Bad = readFileBytes(Path);
  const size_t Entry = findTableEntry(Bad, FlatSectionId::Labels);
  ASSERT_NE(Entry, std::string::npos);
  Bad[Entry] = static_cast<char>(FlatSectionId::RetiredRoute);
  fixHeaderSum(Bad);
  writeFileBytes(Path, Bad);
  Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
  ASSERT_FALSE(E.hasValue());
  EXPECT_NE(E.message().find("retired"), std::string::npos) << E.message();
  EXPECT_NE(E.message().find("id 11"), std::string::npos) << E.message();
}

TEST(FlatImageTest, RejectsMissingFile) {
  Expected<ProfileStoreCache> E =
      readProfileStoreImageFile(testing::TempDir() + "/kast_no_such.kfi");
  EXPECT_FALSE(E.hasValue());
}

//===----------------------------------------------------------------------===//
// v4 routing arenas
//===----------------------------------------------------------------------===//

/// Bit-identical, not just ==: a restored routed shard must reproduce
/// the fitted service's similarity bit patterns, so a double compare
/// (which lets -0.0 pass for +0.0) is not enough.
void expectHitsBitIdentical(const std::vector<ServiceHit> &Restored,
                            const std::vector<ServiceHit> &Truth,
                            const std::string &What) {
  ASSERT_EQ(Restored.size(), Truth.size()) << What;
  for (size_t I = 0; I < Truth.size(); ++I) {
    EXPECT_EQ(Restored[I].Name, Truth[I].Name) << What << " rank " << I;
    EXPECT_EQ(Restored[I].Label, Truth[I].Label) << What << " rank " << I;
    EXPECT_EQ(std::bit_cast<uint64_t>(Restored[I].Similarity),
              std::bit_cast<uint64_t>(Truth[I].Similarity))
        << What << " rank " << I;
  }
}

/// A single-shard routed service over \p Cache's entries; its
/// toShardCaches export carries the flat routing arenas a v4 image
/// serializes.
IndexService makeRoutedService(const ProfileStoreCache &Cache) {
  IndexService Service(Cache.KernelName, {.Shards = 1, .SealThreshold = 8});
  for (size_t I = 0; I < Cache.Store.size(); ++I)
    Service.add(Cache.Names.str(I), Cache.Labels.str(I),
                Cache.Store.materialize(I));
  RoutingOptions Route;
  Route.Cluster.NumCentroids = 4;
  Route.MaxDocFrequency = 0.9;
  Route.DefaultNProbe = 2;
  Service.rebuildRouting(Route, 1);
  return Service;
}

/// Writes a routed single-shard image at \p Path and returns the
/// fitted service (the differential truth for restored queries).
IndexService writeRoutedImage(Rng &R, size_t N, const std::string &Path) {
  ProfileStoreCache Corpus = makeStoreCache(R, N, "k");
  IndexService Service = makeRoutedService(Corpus);
  std::vector<ProfileStoreCache> Exported = Service.toShardCaches();
  EXPECT_NE(Exported[0].Routing, nullptr);
  EXPECT_TRUE(writeProfileStoreImageFile(Exported[0], Path).ok());
  return Service;
}

TEST(FlatImageTest, RoutedImageRestoresWithoutRefitOrRebuild) {
  Rng R(353637);
  const std::string Path = tempImagePath("routed_rt");
  IndexService Service = writeRoutedImage(R, 32, Path);

  // Routing arenas bump the image to version 4.
  EXPECT_EQ(readU32(readFileBytes(Path), 8), 4u);

  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path, Deep);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  ASSERT_NE(Loaded->Routing, nullptr);
  EXPECT_EQ(Loaded->Routing->Covered, Loaded->Store.size());
  // Strings decode lazily: the open materialized no name or label.
  if (std::getenv("KAST_FORCE_BUFFERED") == nullptr) {
    EXPECT_TRUE(Loaded->Names.isMapped());
    EXPECT_TRUE(Loaded->Labels.isMapped());
  }

  std::vector<ProfileStoreCache> Caches;
  Caches.push_back(Loaded.take());
  Expected<IndexService> Restored = IndexService::fromShardCaches(
      std::move(Caches), {.Shards = 1, .SealThreshold = 8});
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  ASSERT_EQ(Restored->snapshot().routedShardCount(), 1u);
  // The whole restore performed no k-means fit and no posting rebuild.
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  // Mapped-arena answers are bit-identical to the fitted service's,
  // routed (pruned) and exact alike.
  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  for (int I = 0; I < 6; ++I) {
    KernelProfile Q = Kernel.profile(randomString(Table, R, 24, 6));
    expectHitsBitIdentical(Restored->queryApprox(Q, 5, true, 0, 1),
                           Service.queryApprox(Q, 5, true, 0, 1),
                           "routed q" + std::to_string(I));
    expectHitsBitIdentical(Restored->query(Q, 5, true, 1),
                           Service.query(Q, 5, true, 1),
                           "exact q" + std::to_string(I));
  }
}

TEST(FlatImageTest, RoutedRestoreBufferedMatchesMapped) {
  Rng R(383940);
  const std::string Path = tempImagePath("routed_buffered");
  IndexService Service = writeRoutedImage(R, 24, Path);

  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  const uint64_t Fits = kmeansFitCount();
  const uint64_t Rebuilds = postingRebuildCount();
  Expected<ProfileStoreCache> Heap = readProfileStoreImageFile(Path, Buffered);
  ASSERT_TRUE(Heap.hasValue()) << Heap.message();
  ASSERT_NE(Heap->Routing, nullptr);

  std::vector<ProfileStoreCache> Caches;
  Caches.push_back(Heap.take());
  Expected<IndexService> Restored = IndexService::fromShardCaches(
      std::move(Caches), {.Shards = 1, .SealThreshold = 8});
  ASSERT_TRUE(Restored.hasValue()) << Restored.message();
  ASSERT_EQ(Restored->snapshot().routedShardCount(), 1u);
  // The buffered fallback views its heap copy exactly like the mmap
  // path views the mapping: still no refit, no rebuild.
  EXPECT_EQ(kmeansFitCount(), Fits);
  EXPECT_EQ(postingRebuildCount(), Rebuilds);

  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  for (int I = 0; I < 5; ++I) {
    KernelProfile Q = Kernel.profile(randomString(Table, R, 20, 6));
    expectHitsBitIdentical(Restored->queryApprox(Q, 4, true, 0, 1),
                           Service.queryApprox(Q, 4, true, 0, 1),
                           "buffered q" + std::to_string(I));
  }
}

TEST(FlatImageTest, RoutedSectionTruncationAndChecksums) {
  Rng R(414243);
  const std::string Path = tempImagePath("routed_corrupt");
  writeRoutedImage(R, 16, Path);
  const std::string Good = readFileBytes(Path);

  // Truncation inside the routing tail of the image.
  {
    writeFileBytes(Path, Good.substr(0, Good.size() - 1));
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("truncated"), std::string::npos)
        << E.message();
  }

  // A flipped byte in an O(N) routing section (the assignments) fails
  // every open, shallow or deep.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::RouteAssignments);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
  }

  // A flipped byte in an entry-sized routing payload (posting values)
  // is caught by deep validation only — the shallow mapped open skips
  // the O(postings) sweep by design.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::PostingValues);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    Bad[static_cast<size_t>(readU64(Good, Entry + 8))] ^= 0x01;
    writeFileBytes(Path, Bad);
    FlatImageReadOptions Deep;
    Deep.DeepValidate = true;
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path, Deep);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("checksum"), std::string::npos) << E.message();
    if (std::getenv("KAST_FORCE_BUFFERED") == nullptr) {
      Expected<ProfileStoreCache> Shallow = readProfileStoreImageFile(Path);
      EXPECT_TRUE(Shallow.hasValue()) << Shallow.message();
    }
  }

  // A misaligned routing section is structural, caught before any
  // checksum work.
  {
    const size_t Entry = findTableEntry(Good, FlatSectionId::RouteMeta);
    ASSERT_NE(Entry, std::string::npos);
    std::string Bad = Good;
    writeU64(Bad, Entry + 8, readU64(Good, Entry + 8) + 4);
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("aligned"), std::string::npos) << E.message();
  }

  // The twelve routing sections are all-or-nothing: dropping the last
  // one from the table (and re-signing the header) is rejected, not
  // silently downgraded to an unrouted image.
  {
    std::string Bad = Good;
    const uint32_t SectionCount = readU32(Good, 12);
    ASSERT_EQ(readU32(Bad, 64 + (SectionCount - 1) * 32),
              static_cast<uint32_t>(FlatSectionId::PostingValues));
    Bad[12] = static_cast<char>(SectionCount - 1);
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("all of their sections"), std::string::npos)
        << E.message();
  }
}

TEST(FlatImageTest, RoutedSectionsRejectedUnderVersionSkew) {
  Rng R(444546);
  const std::string Path = tempImagePath("routed_skew");
  writeRoutedImage(R, 12, Path);
  const std::string Good = readFileBytes(Path);

  // Routing sections under a version-3 header: a v3-era reader (or a
  // rolled-back binary) must fail loudly on the unknown ids.
  {
    std::string Bad = Good;
    Bad[8] = 3;
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("unknown section id"), std::string::npos)
        << E.message();
  }
  // A future version is rejected outright.
  {
    std::string Bad = Good;
    Bad[8] = 5;
    fixHeaderSum(Bad);
    writeFileBytes(Path, Bad);
    Expected<ProfileStoreCache> E = readProfileStoreImageFile(Path);
    ASSERT_FALSE(E.hasValue());
    EXPECT_NE(E.message().find("version"), std::string::npos) << E.message();
  }
}

TEST(FlatImageTest, SectionlessV3ImagesStillLoadUnrouted) {
  // An unrouted cache writes the bit-stable version-3 layout; opening
  // it yields no routing arenas, so the restored collection is
  // unrouted.
  Rng R(474849);
  ProfileStoreCache Cache = makeStoreCache(R, 10, "k");
  const std::string Path = tempImagePath("v3_fallback");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  EXPECT_EQ(readU32(readFileBytes(Path), 8), 3u);
  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  EXPECT_EQ(Loaded->Routing, nullptr);
  expectStoresBitExact(Loaded->Store, Cache.Store);
}

/// The sections of a flat image in table order, as (id, bytes).
std::vector<std::pair<uint32_t, std::string>>
imageSections(const std::string &Bytes) {
  std::vector<std::pair<uint32_t, std::string>> Sections;
  const uint32_t SectionCount = readU32(Bytes, 12);
  for (uint32_t I = 0; I < SectionCount; ++I) {
    const size_t Entry = 64 + static_cast<size_t>(I) * 32;
    Sections.push_back(
        {readU32(Bytes, Entry),
         Bytes.substr(static_cast<size_t>(readU64(Bytes, Entry + 8)),
                      static_cast<size_t>(readU64(Bytes, Entry + 16)))});
  }
  return Sections;
}

/// Lays \p Sections out the way the writer does (in order, each
/// page-aligned, each checksummed) under the header fields of
/// \p Header, and re-signs the header.
std::string layOutImage(const std::string &Header,
                        const std::vector<std::pair<uint32_t, std::string>>
                            &Sections) {
  std::string Out = Header.substr(0, 64);
  Out.resize(64 + Sections.size() * 32);
  Out[12] = static_cast<char>(Sections.size());
  for (size_t I = 0; I < Sections.size(); ++I) {
    const size_t Offset = (Out.size() + 4095) / 4096 * 4096;
    const std::string &Data = Sections[I].second;
    const size_t Entry = 64 + I * 32;
    writeU64(Out, Entry, Sections[I].first); // id, then reserved u32 0
    writeU64(Out, Entry + 8, Offset);
    writeU64(Out, Entry + 16, Data.size());
    writeU64(Out, Entry + 24, checksumBytes(Data.data(), Data.size()));
    Out.resize(Offset);
    Out += Data;
  }
  fixHeaderSum(Out);
  return Out;
}

TEST(FlatImageTest, ParentLayoutWithInt8SidecarOpensAndAnswersIdentically) {
  // Images written while the int8 shortlist tier existed carry its
  // codes and scales as sections 9/10 (between LABELS and the routing
  // sections) and set routing-meta bit 0 and the re-rank budget slot.
  // Rebuild exactly that layout from a current image (byte for byte
  // what the old writer produced for the same shard with budget 96):
  // it must open, shallow, deep and buffered, and answer bit for bit
  // like the current image; and re-saving it writes the current
  // layout.
  Rng R(484950);
  const std::string Path = tempImagePath("parent_layout_current");
  IndexService Service = writeRoutedImage(R, 40, Path);
  const std::string Current = readFileBytes(Path);
  Expected<ProfileStoreCache> Plain = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Plain.hasValue()) << Plain.message();
  const ProfileStore &Store = Plain->Store;

  // The sidecar as the old writer built it: per-profile scale
  // maxAbs / 127 and round-to-nearest int8 codes.
  std::string Codes(Store.entryCount(), '\0');
  std::string Scales(Store.size() * 8, '\0');
  for (size_t I = 0; I < Store.size(); ++I) {
    const ProfileView V = Store.view(I);
    double MaxAbs = 0.0;
    for (size_t E = 0; E < V.Size; ++E)
      MaxAbs = std::max(MaxAbs, std::abs(V.Values[E]));
    const double Scale = MaxAbs > 0.0 ? MaxAbs / 127.0 : 0.0;
    const double Inv = Scale > 0.0 ? 1.0 / Scale : 0.0;
    writeU64(Scales, I * 8, std::bit_cast<uint64_t>(Scale));
    const size_t Begin = static_cast<size_t>(Store.offsets()[I]);
    for (size_t E = 0; E < V.Size; ++E)
      Codes[Begin + E] = static_cast<char>(std::lround(V.Values[E] * Inv));
  }
  std::vector<std::pair<uint32_t, std::string>> Sections =
      imageSections(Current);
  for (auto &[Id, Data] : Sections)
    if (Id == static_cast<uint32_t>(FlatSectionId::RouteMeta)) {
      Data[12] = 1;           // flags: the old QuantizedShortlist bit
      writeU64(Data, 24, 96); // the old RerankBudget
    }
  auto Labels = std::find_if(Sections.begin(), Sections.end(), [](auto &S) {
    return S.first == static_cast<uint32_t>(FlatSectionId::Labels);
  });
  ASSERT_NE(Labels, Sections.end());
  Sections.insert(
      Labels + 1,
      {{static_cast<uint32_t>(FlatSectionId::RetiredQuantValues), Codes},
       {static_cast<uint32_t>(FlatSectionId::RetiredQuantScales), Scales}});
  const std::string Parent = layOutImage(Current, Sections);
  const std::string ParentPath = tempImagePath("parent_layout");
  writeFileBytes(ParentPath, Parent);
  EXPECT_EQ(readU32(Parent, 8), 4u);
  EXPECT_NE(findTableEntry(Parent, FlatSectionId::RetiredQuantValues),
            std::string::npos);

  auto Table = TokenTable::create();
  BlendedSpectrumKernel Kernel(3, 0.8, /*Weighted=*/true, /*CutWeight=*/2);
  std::vector<KernelProfile> Queries;
  for (int I = 0; I < 8; ++I)
    Queries.push_back(Kernel.profile(randomString(Table, R, 24, 6)));

  FlatImageReadOptions Deep;
  Deep.DeepValidate = true;
  FlatImageReadOptions Buffered;
  Buffered.ForceBuffered = true;
  for (const FlatImageReadOptions &Options :
       {FlatImageReadOptions{}, Deep, Buffered}) {
    Expected<ProfileStoreCache> Loaded =
        readProfileStoreImageFile(ParentPath, Options);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
    ASSERT_NE(Loaded->Routing, nullptr);
    expectStoresBitExact(Loaded->Store, Store);
    std::vector<ProfileStoreCache> Caches;
    Caches.push_back(Loaded.take());
    Expected<IndexService> Restored = IndexService::fromShardCaches(
        std::move(Caches), {.Shards = 1, .SealThreshold = 8});
    ASSERT_TRUE(Restored.hasValue()) << Restored.message();
    ASSERT_EQ(Restored->snapshot().routedShardCount(), 1u);
    for (size_t Q = 0; Q < Queries.size(); ++Q)
      for (size_t NProbe : {size_t(0), size_t(1), size_t(4)}) {
        const std::string What =
            "q" + std::to_string(Q) + " nprobe " + std::to_string(NProbe);
        expectHitsBitIdentical(
            Restored->queryApprox(Queries[Q], 5, true, NProbe, 1),
            Service.queryApprox(Queries[Q], 5, true, NProbe, 1), What);
        expectHitsBitIdentical(Restored->query(Queries[Q], 5, true, 1),
                               Service.query(Queries[Q], 5, true, 1), What);
      }

    // Re-saving drops the retired sections and zeroes the retired
    // slots: the bytes are exactly the current writer's.
    const std::string Resaved = tempImagePath("parent_layout_resaved");
    ASSERT_TRUE(
        writeProfileStoreImageFile(Restored->toShardCaches()[0], Resaved)
            .ok());
    EXPECT_EQ(readFileBytes(Resaved), Current);
  }
}

} // namespace
