//===- tests/ArenaArrayTest.cpp - owned-or-mapped array rules --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// The copy, move and promotion rules of core/ArenaArray, in both
// backing modes and over the element types the arenas use: an owned
// copy is independent of its source, a mapped copy shares the mapping
// and keeps it alive, the first mutation of a mapped array promotes it
// to owned memory without writing the mapping, a moved-from array is
// empty and reusable, and self-assignment is harmless. Mapped arrays
// view a real file opened through util/MappedImage, so the suite also
// runs against the buffered-read backing under KAST_FORCE_BUFFERED=1.
// StringColumn, built on two ArenaArrays, gets the same promotion
// check on a column read from a flat image.
//
//===----------------------------------------------------------------------===//

#include "core/ArenaArray.h"
#include "core/FlatImage.h"
#include "core/StringColumn.h"
#include "util/MappedImage.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace kast;

namespace {

/// A per-test file name: ctest runs the cases in parallel processes.
std::string tempPath(const std::string &Stem) {
  const testing::TestInfo *Info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string Name = std::string(Info->test_suite_name()) + "_" +
                     Info->name() + "_" + Stem;
  for (char &C : Name)
    if (C == '/')
      C = '_';
  return testing::TempDir() + "/kast_" + Name;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

template <typename T> std::vector<T> sampleValues(size_t N) {
  std::vector<T> Values;
  for (size_t I = 0; I < N; ++I)
    Values.push_back(static_cast<T>(3 * I + 1));
  return Values;
}

template <typename T> class ArenaArrayTest : public testing::Test {
protected:
  static constexpr size_t N = 24;

  /// Writes sampleValues<T>(N) to a file and opens it through
  /// MappedImage (mmap, or the buffered fallback when forced).
  std::shared_ptr<const MappedImage> openImage() {
    Path = tempPath("image");
    const std::vector<T> Values = sampleValues<T>(N);
    {
      std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
      Out.write(reinterpret_cast<const char *>(Values.data()),
                static_cast<std::streamsize>(Values.size() * sizeof(T)));
      EXPECT_TRUE(Out.good());
    }
    Expected<std::shared_ptr<const MappedImage>> Image =
        MappedImage::open(Path);
    EXPECT_TRUE(Image.hasValue()) << Image.message();
    return Image.take();
  }

  static ArenaArray<T> mappedOver(const std::shared_ptr<const MappedImage> &I) {
    return ArenaArray<T>::mapped(
        {reinterpret_cast<const T *>(I->data()), I->size() / sizeof(T)}, I);
  }

  static void expectValues(const ArenaArray<T> &A, size_t Count) {
    const std::vector<T> Want = sampleValues<T>(Count);
    ASSERT_EQ(A.size(), Count);
    EXPECT_EQ(A.view(), ArrayView<T>(Want));
  }

  std::string Path;
};

using ElementTypes = testing::Types<uint64_t, double, int8_t>;
TYPED_TEST_SUITE(ArenaArrayTest, ElementTypes);

TYPED_TEST(ArenaArrayTest, OwnedCopyOutlivesItsSource) {
  using T = TypeParam;
  constexpr size_t N = TestFixture::N;
  auto Source = std::make_unique<ArenaArray<T>>(sampleValues<T>(N));
  EXPECT_FALSE(Source->isMapped());
  ArenaArray<T> Constructed(*Source);
  ArenaArray<T> Assigned;
  Assigned = *Source;
  EXPECT_NE(Constructed.data(), Source->data());
  EXPECT_NE(Assigned.data(), Source->data());
  Source.reset();
  EXPECT_FALSE(Constructed.isMapped());
  this->expectValues(Constructed, N);
  this->expectValues(Assigned, N);
}

TYPED_TEST(ArenaArrayTest, MappedCopySharesTheMappingAndKeepsItAlive) {
  using T = TypeParam;
  constexpr size_t N = TestFixture::N;
  std::shared_ptr<const MappedImage> Image = this->openImage();
  const std::weak_ptr<const MappedImage> Watch = Image;
  const T *Bytes = reinterpret_cast<const T *>(Image->data());

  auto Source = std::make_unique<ArenaArray<T>>(this->mappedOver(Image));
  Image.reset();
  ArenaArray<T> Constructed(*Source);
  ArenaArray<T> Assigned;
  Assigned = *Source;
  Source.reset();

  // Both copies still view the mapping itself, not private copies.
  EXPECT_TRUE(Constructed.isMapped());
  EXPECT_TRUE(Assigned.isMapped());
  EXPECT_EQ(Constructed.data(), Bytes);
  EXPECT_EQ(Assigned.data(), Bytes);
  EXPECT_FALSE(Watch.expired());
  this->expectValues(Constructed, N);

  Constructed = ArenaArray<T>();
  EXPECT_FALSE(Watch.expired()); // Assigned still holds it.
  Assigned = ArenaArray<T>();
  EXPECT_TRUE(Watch.expired());
}

TYPED_TEST(ArenaArrayTest, FirstMutationPromotesAndLeavesTheBackingUnchanged) {
  using T = TypeParam;
  constexpr size_t N = TestFixture::N;
  const std::vector<T> Extra = sampleValues<T>(N + 2);
  struct Mutation {
    const char *Name;
    std::function<void(ArenaArray<T> &)> Apply;
    size_t SizeAfter;
  };
  const Mutation Mutations[] = {
      {"push_back", [&](ArenaArray<T> &A) { A.push_back(Extra[N]); }, N + 1},
      {"grow",
       [&](ArenaArray<T> &A) {
         T *New = A.grow(2);
         New[0] = Extra[N];
         New[1] = Extra[N + 1];
       },
       N + 2},
      {"grow(0)", [](ArenaArray<T> &A) { A.grow(0); }, N},
      {"append",
       [&](ArenaArray<T> &A) { A.append(&Extra[N], &Extra[N] + 2); }, N + 2},
      {"pop_back", [](ArenaArray<T> &A) { A.pop_back(); }, N - 1},
      {"resize", [](ArenaArray<T> &A) { A.resize(N / 2); }, N / 2},
      {"reserve", [](ArenaArray<T> &A) { A.reserve(4 * N); }, N},
  };
  for (const Mutation &M : Mutations) {
    SCOPED_TRACE(M.Name);
    std::shared_ptr<const MappedImage> Image = this->openImage();
    const std::string Before(reinterpret_cast<const char *>(Image->data()),
                             Image->size());
    ArenaArray<T> A = this->mappedOver(Image);
    ArenaArray<T> Sibling = A;

    M.Apply(A);
    EXPECT_FALSE(A.isMapped());
    EXPECT_NE(A.data(), reinterpret_cast<const T *>(Image->data()));
    this->expectValues(A, M.SizeAfter);

    // The mapping, and every other array viewing it, is untouched.
    EXPECT_EQ(std::memcmp(Image->data(), Before.data(), Before.size()), 0);
    EXPECT_EQ(readFileBytes(this->Path), Before);
    EXPECT_TRUE(Sibling.isMapped());
    this->expectValues(Sibling, N);

    // The promoted array dropped its keep-alive: once the sibling and
    // the local handle let go, the image is released while A lives on.
    const std::weak_ptr<const MappedImage> Watch = Image;
    Image.reset();
    EXPECT_FALSE(Watch.expired());
    Sibling = ArenaArray<T>();
    EXPECT_TRUE(Watch.expired());
    this->expectValues(A, M.SizeAfter);
  }
}

TYPED_TEST(ArenaArrayTest, MovedFromArrayIsEmptyAndReusable) {
  using T = TypeParam;
  constexpr size_t N = TestFixture::N;
  std::shared_ptr<const MappedImage> Image = this->openImage();
  for (bool Mapped : {false, true}) {
    SCOPED_TRACE(Mapped ? "mapped" : "owned");
    ArenaArray<T> Source = Mapped ? this->mappedOver(Image)
                                  : ArenaArray<T>(sampleValues<T>(N));
    const T *Data = Source.data();

    // Move construction hands the storage over: the same elements, at
    // the same address, in the same mode.
    ArenaArray<T> Constructed(std::move(Source));
    EXPECT_EQ(Constructed.data(), Data);
    EXPECT_EQ(Constructed.isMapped(), Mapped);
    this->expectValues(Constructed, N);
    EXPECT_TRUE(Source.empty());
    EXPECT_FALSE(Source.isMapped());

    ArenaArray<T> Assigned;
    Assigned = std::move(Constructed);
    EXPECT_EQ(Assigned.data(), Data);
    this->expectValues(Assigned, N);
    EXPECT_TRUE(Constructed.empty());
    EXPECT_FALSE(Constructed.isMapped());

    for (ArenaArray<T> *Reused : {&Source, &Constructed}) {
      Reused->push_back(static_cast<T>(1));
      Reused->push_back(static_cast<T>(4));
      this->expectValues(*Reused, 2);
    }
    this->expectValues(Assigned, N);
  }
}

TYPED_TEST(ArenaArrayTest, SelfAssignmentIsSafe) {
  using T = TypeParam;
  constexpr size_t N = TestFixture::N;
  std::shared_ptr<const MappedImage> Image = this->openImage();
  for (bool Mapped : {false, true}) {
    SCOPED_TRACE(Mapped ? "mapped" : "owned");
    ArenaArray<T> A = Mapped ? this->mappedOver(Image)
                             : ArenaArray<T>(sampleValues<T>(N));
    const T *Data = A.data();
    ArenaArray<T> &Alias = A;
    A = Alias;
    EXPECT_EQ(A.data(), Data);
    EXPECT_EQ(A.isMapped(), Mapped);
    this->expectValues(A, N);
    A = std::move(Alias);
    EXPECT_EQ(A.data(), Data);
    EXPECT_EQ(A.isMapped(), Mapped);
    this->expectValues(A, N);
  }
}

TEST(StringColumnTest, PushAndPopOnAMappedColumnFromAnImage) {
  ProfileStoreCache Cache;
  Cache.KernelName = "k";
  const std::vector<std::string> Names = {"alpha", "", "gamma", "delta"};
  for (const std::string &Name : Names) {
    Cache.Names.push_back(Name);
    Cache.Labels.push_back("l");
    Cache.Store.append(KernelProfile());
  }
  const std::string Path = tempPath("image.kfi");
  ASSERT_TRUE(writeProfileStoreImageFile(Cache, Path).ok());
  const std::string Before = readFileBytes(Path);

  Expected<ProfileStoreCache> Loaded = readProfileStoreImageFile(Path);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.message();
  StringColumn Column = Loaded->Names;
  ASSERT_TRUE(Column.isMapped());
  EXPECT_EQ(Column, Names);

  // push_back promotes the column; the image's own column is untouched.
  Column.push_back("epsilon");
  EXPECT_FALSE(Column.isMapped());
  std::vector<std::string> Want = Names;
  Want.push_back("epsilon");
  EXPECT_EQ(Column, Want);
  EXPECT_TRUE(Loaded->Names.isMapped());
  EXPECT_EQ(Loaded->Names, Names);

  Column.pop_back();
  Column.pop_back();
  Want.resize(Names.size() - 1);
  EXPECT_EQ(Column, Want);

  // pop_back as the first mutation promotes too.
  StringColumn Popped = Loaded->Names;
  Popped.pop_back();
  EXPECT_FALSE(Popped.isMapped());
  EXPECT_EQ(Popped, Want);
  while (!Popped.empty())
    Popped.pop_back();
  Popped.push_back("again");
  EXPECT_EQ(Popped, std::vector<std::string>{"again"});

  EXPECT_EQ(readFileBytes(Path), Before);
}

} // namespace
