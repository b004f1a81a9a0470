// FileStore: the durable ObjectStore behind the service tier's crash
// story. Round-trips, subdirectory keys, root-escape rejection, and the
// property the journal depends on: contents persist across instances
// (process restarts), and a torn value is readable as the bytes that
// made it to disk.
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
  EXPECT_EQ(*got, "short");  // truncated, not merged with the old tail
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
    ASSERT_TRUE(first.put("journal/serve.log", "DITTOJL1...").is_ok());
    ASSERT_TRUE(first.put("sinks/a/stage-1", "bytes").is_ok());
  }
  // A new instance over the same root — the restart in miniature.
  FileStore second(root);
  EXPECT_TRUE(second.contains("journal/serve.log"));
  const auto log = second.get("journal/serve.log");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(*log, "DITTOJL1...");
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

}  // namespace
}  // namespace ditto::storage
