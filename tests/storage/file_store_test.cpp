// FileStore: the durable ObjectStore behind the service tier's crash
// story. Round-trips, subdirectory keys, root-escape rejection, and the
// properties the journal depends on: contents persist across instances
// (process restarts), and a put replaces a value whole — a concurrent
// reader never sees a prefix, and staging files never show as keys.
#include "storage/file_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace ditto::storage {
namespace {

std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "ditto_file_store_" + name;
  // Tests re-run in the same TempDir: start from empty.
  FileStore sweeper(root);
  for (const auto& key : sweeper.list("")) (void)sweeper.remove(key);
  return root;
}

TEST(FileStoreTest, PutGetRoundTrip) {
  FileStore store(fresh_root("roundtrip"));
  EXPECT_EQ(std::string(store.kind()), "file");
  const std::string value = "hello\0world\xff binary ok";
  ASSERT_TRUE(store.put("k", value).is_ok());
  const auto got = store.get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  EXPECT_TRUE(store.contains("k"));
  EXPECT_FALSE(store.contains("missing"));
  EXPECT_EQ(store.get("missing").status().code(), StatusCode::kNotFound);
}

TEST(FileStoreTest, OverwriteReplacesWhole) {
  FileStore store(fresh_root("overwrite"));
  ASSERT_TRUE(store.put("k", "a much longer original value").is_ok());
  ASSERT_TRUE(store.put("k", "short").is_ok());
  const auto got = store.get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "short");  // replaced whole, not merged with the old tail
}

TEST(FileStoreTest, SlashKeysBecomeSubdirectories) {
  FileStore store(fresh_root("subdirs"));
  ASSERT_TRUE(store.put("journal/serve.log", "J").is_ok());
  ASSERT_TRUE(store.put("sinks/a/stage-3", "A3").is_ok());
  ASSERT_TRUE(store.put("sinks/b/stage-3", "B3").is_ok());
  auto sinks = store.list("sinks/");
  std::sort(sinks.begin(), sinks.end());
  ASSERT_EQ(sinks.size(), 2u);
  EXPECT_EQ(sinks[0], "sinks/a/stage-3");
  EXPECT_EQ(sinks[1], "sinks/b/stage-3");
  EXPECT_EQ(store.list("").size(), 3u);
  EXPECT_TRUE(store.list("nothing/").empty());
}

TEST(FileStoreTest, RejectsKeysThatEscapeTheRoot) {
  FileStore store(fresh_root("escape"));
  for (const std::string key : {"", "/etc/passwd", "../outside", "a/../../b", "a/..", ".."}) {
    const Status st = store.put(key, "x");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "key: '" << key << "'";
  }
  // '..' as a NAME fragment is fine; only path segments escape.
  EXPECT_TRUE(store.put("a..b", "x").is_ok());
}

TEST(FileStoreTest, PersistsAcrossInstances) {
  const std::string root = fresh_root("persist");
  {
    FileStore first(root);
    ASSERT_TRUE(first.put("journal/serve.log", "journal bytes").is_ok());
    ASSERT_TRUE(first.put("sinks/a/stage-1", "bytes").is_ok());
  }
  // A new instance over the same root — the restart in miniature.
  FileStore second(root);
  EXPECT_TRUE(second.contains("journal/serve.log"));
  const auto log = second.get("journal/serve.log");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(*log, "journal bytes");
  EXPECT_EQ(second.list("").size(), 2u);
}

TEST(FileStoreTest, RemoveDeletesAndCountsBytes) {
  FileStore store(fresh_root("remove"));
  ASSERT_TRUE(store.put("a", "12345678").is_ok());
  ASSERT_TRUE(store.put("b", "1234").is_ok());
  EXPECT_EQ(store.used_bytes(), 12u);
  ASSERT_TRUE(store.remove("a").is_ok());
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.used_bytes(), 4u);
  EXPECT_EQ(store.remove("a").code(), StatusCode::kNotFound);
  const auto stats = store.stats();
  EXPECT_EQ(stats.puts, 2u);
}

TEST(FileStoreTest, RemovingTheLastKeyPrunesItsDirectoriesButNotTheRoot) {
  const std::string root = fresh_root("prune");
  FileStore store(root);
  ASSERT_TRUE(store.put("a/b/k", "v").is_ok());
  ASSERT_TRUE(store.remove("a/b/k").is_ok());
  EXPECT_FALSE(std::filesystem::exists(root + "/a"));
  EXPECT_TRUE(std::filesystem::is_directory(root));
  // A top-level key has no directory of its own to prune.
  ASSERT_TRUE(store.put("top", "v").is_ok());
  ASSERT_TRUE(store.remove("top").is_ok());
  EXPECT_TRUE(std::filesystem::is_directory(root));
}

TEST(FileStoreTest, SiblingKeyKeepsItsDirectory) {
  const std::string root = fresh_root("prune_sibling");
  FileStore store(root);
  ASSERT_TRUE(store.put("a/b/k1", "1").is_ok());
  ASSERT_TRUE(store.put("a/b/k2", "2").is_ok());
  ASSERT_TRUE(store.put("a/c/k3", "3").is_ok());
  ASSERT_TRUE(store.remove("a/b/k1").is_ok());
  EXPECT_TRUE(std::filesystem::is_directory(root + "/a/b"));
  EXPECT_TRUE(store.contains("a/b/k2"));
  ASSERT_TRUE(store.remove("a/b/k2").is_ok());
  EXPECT_FALSE(std::filesystem::exists(root + "/a/b"));
  EXPECT_TRUE(std::filesystem::is_directory(root + "/a"));  // a/c still holds k3
  EXPECT_TRUE(store.contains("a/c/k3"));
}

TEST(FileStoreTest, PutRacingRemovesInOneDirectoryNeverFails) {
  const std::string root = fresh_root("prune_race");
  FileStore store(root);
  // The remover keeps emptying d/e, so its prune keeps deleting the
  // directory the writer's next put creates and opens a file in.
  std::atomic<int> failures{0};
  std::thread remover([&] {
    for (int i = 0; i < 400; ++i) {
      if (!store.put("d/e/r", "r").is_ok()) failures.fetch_add(1);
      (void)store.remove("d/e/r");
    }
  });
  for (int i = 0; i < 400; ++i) {
    const std::string key = "d/e/w" + std::to_string(i);
    const Status put = store.put(key, "w");
    EXPECT_TRUE(put.is_ok()) << put.to_string();
    EXPECT_TRUE(store.remove(key).is_ok()) << key;
  }
  remover.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(std::filesystem::exists(root + "/d"));
}

TEST(FileStoreTest, RejectsKeysThatStartASegmentWithADot) {
  FileStore store(fresh_root("dot"));
  for (const std::string key : {".hidden", "a/.b", ".a/b", "a/.b.tmp0"}) {
    EXPECT_EQ(store.put(key, "x").code(), StatusCode::kInvalidArgument) << "key: '" << key << "'";
    EXPECT_EQ(store.get(key).status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_FALSE(store.contains(key)) << key;
  }
  // A dot inside a segment is an ordinary name.
  EXPECT_TRUE(store.put("a/b.c", "x").is_ok());
}

// A put replaces the value atomically: a reader racing a stream of puts
// of one key sees one whole value or the other, never a prefix.
TEST(FileStoreTest, ReaderRacingPutsNeverSeesAPrefix) {
  FileStore store(fresh_root("atomic"));
  constexpr std::size_t kBytes = 256 * 1024;
  const std::string a(kBytes, 'a');
  const std::string b(kBytes, 'b');
  ASSERT_TRUE(store.put("d/k", a).is_ok());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(store.put("d/k", i % 2 == 0 ? b : a).is_ok());
    }
    done.store(true);
  });
  int reads = 0;
  int bad = 0;
  while (!done.load()) {
    const auto got = store.get("d/k");
    ++reads;
    if (!got.ok() || (*got != a && *got != b)) ++bad;
  }
  writer.join();
  EXPECT_GT(reads, 0);
  EXPECT_EQ(bad, 0) << "of " << reads << " reads";
}

// Staging files never show: not in list or used_bytes while puts run,
// not when a killed process left one behind, and a new FileStore over
// the root deletes the leftovers, and any empty directories.
TEST(FileStoreTest, StagingFilesNeverShowAndLeftoversAreDeleted) {
  const std::string root = fresh_root("staging");
  {
    FileStore store(root);
    const std::string value(64 * 1024, 'v');
    ASSERT_TRUE(store.put("d/k", value).is_ok());
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (int i = 0; i < 200; ++i) EXPECT_TRUE(store.put("d/k", value).is_ok());
      done.store(true);
    });
    int bad = 0;
    while (!done.load()) {
      for (const std::string& key : store.list("")) bad += key != "d/k";
      bad += store.used_bytes() > value.size();
    }
    writer.join();
    EXPECT_EQ(bad, 0);
  }
  // Staging files as puts killed before their rename leave them, one
  // next to a key and one alone in its directories.
  const auto leave = [](const std::string& path) {
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("half a value", f);
    std::fclose(f);
  };
  const std::string leftover = root + "/d/.k.tmp7";
  leave(leftover);
  leave(root + "/s/t/.u.tmp9");
  std::filesystem::create_directories(root + "/e/f");  // a put killed before its open
  {
    FileStore reopened(root);
    EXPECT_FALSE(std::filesystem::exists(leftover));
    EXPECT_FALSE(std::filesystem::exists(root + "/s"));  // emptied directories pruned
    EXPECT_FALSE(std::filesystem::exists(root + "/e"));
    EXPECT_EQ(reopened.list(""), std::vector<std::string>{"d/k"});
  }
  // Created behind an open store's back, it still never shows.
  {
    FileStore store(root);
    leave(leftover);
    EXPECT_EQ(store.list(""), std::vector<std::string>{"d/k"});
    EXPECT_EQ(store.used_bytes(), 64u * 1024u);
    EXPECT_EQ(store.get("d/.k.tmp7").status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace ditto::storage
