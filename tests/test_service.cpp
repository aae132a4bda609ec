// Campaign service tests: the SHA-256 primitive (pinned FIPS vectors),
// the cache-key contract (pinned golden material + hash, key-affecting
// vs key-invariant knobs), the wire protocol (frame round trips over a
// socketpair, strict cell JSON), the content-addressed store, and the
// daemon itself — cold/warm byte-identity with zero new engine trials,
// determinism across worker counts and submission orders, and the full
// client conversation over a real unix socket.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "fault/campaign.h"
#include "fault/cell.h"
#include "pipeline/pipeline.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/proto.h"
#include "service/service.h"
#include "support/hash.h"
#include "support/transport.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using fault::CampaignCell;

// ---------------------------------------------------------------------
// SHA-256: pinned FIPS 180-4 vectors. The cache keys and stored-result
// addresses are only stable across runs/platforms if these never move.

TEST(Sha256, PinnedShortVectors) {
  EXPECT_EQ(
      sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, PinnedTwoBlockVector) {
  EXPECT_EQ(
      sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, PinnedMillionA) {
  const std::string million(1000000, 'a');
  EXPECT_EQ(
      sha256_hex(million),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string text =
      "the quick brown fox jumps over the lazy dog, repeatedly, until the "
      "buffer spans more than one 64-byte block boundary";
  // Feed in deliberately awkward chunk sizes (1, 2, 3, ... bytes).
  Sha256 hasher;
  std::size_t offset = 0, chunk = 1;
  while (offset < text.size()) {
    const std::size_t take = std::min(chunk++, text.size() - offset);
    hasher.update(text.data() + offset, take);
    offset += take;
  }
  EXPECT_EQ(hasher.hex_digest(), sha256_hex(text));
}

TEST(Sha256, EmptyUpdatesFromNullChangeNothing) {
  // An empty vector's data() may be null; hashing it must be a no-op,
  // with bytes buffered or not (memcpy from null is undefined even for
  // zero bytes, and the address preset's UBSan stops on it).
  Sha256 hasher;
  hasher.update(nullptr, 0);
  hasher.update("ab");
  hasher.update(std::vector<std::uint8_t>().data(), 0);
  hasher.update(std::string_view());
  hasher.update("c");
  EXPECT_EQ(hasher.hex_digest(), sha256_hex("abc"));
}

TEST(Sha256, DigestIsIdempotentAndSealsTheHasher) {
  Sha256 hasher;
  hasher.update("abc");
  const std::string first = hasher.hex_digest();
  EXPECT_EQ(first, hasher.hex_digest());
  EXPECT_THROW(hasher.update("more"), std::logic_error);
}

// ---------------------------------------------------------------------
// Cache-key contract.

constexpr const char* kEmptySha =
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";

TEST(CellKey, PinnedGoldenMaterialAndKey) {
  // The default cell against the empty-program hash. If this golden
  // moves, every existing store entry is orphaned — bump the material
  // version ("ferrum-cell-v2") instead of silently changing the layout.
  const CampaignCell cell;
  const std::string material = fault::cell_key_material(cell, kEmptySha);
  EXPECT_EQ(material,
            "ferrum-cell-v2\n"
            "program_sha256=" +
                std::string(kEmptySha) +
                "\n"
                "technique=ferrum\n"
                "trials=1000\n"
                "seed=65092\n"
                "faults_per_run=1\n"
                "burst=1\n"
                "store_data=0\n"
                "prune=0\n"
                "max_half_width=0\n");
  EXPECT_EQ(
      sha256_hex(material),
      "5628bc5caf4d00cd631cdf4fe83b8653a5dc1bd93651962dbcd1a083bc1c9894");
}

TEST(CellKey, ResultAffectingKnobsChangeTheKey) {
  const CampaignCell base;
  const std::string base_key =
      sha256_hex(fault::cell_key_material(base, kEmptySha));
  auto key_of = [&](auto mutate) {
    CampaignCell cell = base;
    mutate(cell);
    return sha256_hex(fault::cell_key_material(cell, kEmptySha));
  };
  EXPECT_NE(key_of([](CampaignCell& c) { c.technique = "none"; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.trials = 999; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.seed = 65093; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.faults_per_run = 2; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.burst = 2; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.store_data = true; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.prune = true; }), base_key);
  EXPECT_NE(key_of([](CampaignCell& c) { c.max_half_width = 0.02; }),
            base_key);
  // And a different program hash is a different cell.
  EXPECT_NE(sha256_hex(fault::cell_key_material(base, sha256_hex("x"))),
            base_key);
}

TEST(CellKey, EngineKnobsAreNotKeyMaterial) {
  // jobs is proven result-invariant (tests/test_engine.cpp byte-compares
  // campaign JSON across it), so a warm query with another jobs value
  // must still hit the store.
  const CampaignCell base;
  const std::string base_material = fault::cell_key_material(base, kEmptySha);
  CampaignCell cell = base;
  cell.jobs = 8;
  EXPECT_EQ(fault::cell_key_material(cell, kEmptySha), base_material);
}

TEST(CellKey, ProgramHashTracksTechnique) {
  const char* source = "int main() { print_int(7); return 0; }";
  const auto plain = pipeline::build(source, pipeline::Technique::kNone);
  const auto hardened =
      pipeline::build(source, pipeline::Technique::kFerrum);
  EXPECT_NE(fault::program_hash(plain.program),
            fault::program_hash(hardened.program));
  CampaignCell cell;
  cell.program = source;
  EXPECT_NE(fault::cell_key(cell, plain.program),
            fault::cell_key(cell, hardened.program));
}

TEST(CellKey, ValidateCellRejectsBadSpecs) {
  std::string error;
  CampaignCell cell;  // neither program nor workload
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.workload = "bfs";
  EXPECT_TRUE(fault::validate_cell(cell, error));
  cell.program = "int main() { return 0; }";  // both set
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.program.clear();
  cell.technique = "tmr";
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.technique = "ferrum";
  cell.trials = 0;
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.trials = 10;
  cell.prune = true;
  cell.faults_per_run = 2;
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.prune = false;
  cell.faults_per_run = 1;
  cell.max_half_width = 0.5;  // stop rule wants [0, 0.5)
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.max_half_width = -0.01;
  EXPECT_FALSE(fault::validate_cell(cell, error));
  cell.max_half_width = 0.05;
  EXPECT_TRUE(fault::validate_cell(cell, error)) << error;
  cell.prune = true;  // prune extrapolates, adaptive would skew it
  EXPECT_FALSE(fault::validate_cell(cell, error));
}

// ---------------------------------------------------------------------
// Wire protocol.

TEST(Proto, FrameRoundTripOverSocketpair) {
  auto [a, b] = Conn::pipe_pair();
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  ASSERT_TRUE(service::write_frame(a, service::MsgType::kHello,
                                   std::string_view("{}")));
  telemetry::Json payload = telemetry::Json::object();
  payload["job"] = static_cast<std::uint64_t>(42);
  ASSERT_TRUE(service::write_frame(a, service::MsgType::kStatus, payload));
  service::Frame frame;
  ASSERT_TRUE(service::read_frame(b, frame));
  EXPECT_EQ(frame.type, service::MsgType::kHello);
  EXPECT_EQ(frame.payload, "{}");
  ASSERT_TRUE(service::read_frame(b, frame));
  EXPECT_EQ(frame.type, service::MsgType::kStatus);
  EXPECT_EQ(frame.payload, payload.dump());
  a.close();
  EXPECT_FALSE(service::read_frame(b, frame));  // clean EOF
}

TEST(Proto, ReadFrameRejectsUnknownTypeByte) {
  auto [a, b] = Conn::pipe_pair();
  const std::uint32_t length = 2;
  std::uint8_t header[5];
  std::memcpy(header, &length, 4);
  header[4] = 200;  // not a MsgType
  ASSERT_TRUE(a.write_all(header, sizeof header));
  ASSERT_TRUE(a.write_all("{}", 2));
  service::Frame frame;
  EXPECT_FALSE(service::read_frame(b, frame));
}

TEST(Proto, ReadFrameRejectsOversizedLength) {
  auto [a, b] = Conn::pipe_pair();
  const std::uint32_t length = service::kMaxFrameBytes + 1;
  std::uint8_t header[5];
  std::memcpy(header, &length, 4);
  header[4] = static_cast<std::uint8_t>(service::MsgType::kHello);
  ASSERT_TRUE(a.write_all(header, sizeof header));
  service::Frame frame;
  EXPECT_FALSE(service::read_frame(b, frame));
}

TEST(Proto, CellJsonRoundTrip) {
  CampaignCell cell;
  cell.workload = "bfs";
  cell.scale = 2;
  cell.technique = "hybrid";
  cell.trials = 123;
  cell.seed = 99;
  cell.faults_per_run = 2;
  cell.burst = 3;
  cell.store_data = true;
  cell.jobs = 4;
  cell.max_half_width = 0.03;
  CampaignCell parsed;
  std::string error;
  ASSERT_TRUE(service::cell_from_json(service::cell_to_json(cell), parsed,
                                      error))
      << error;
  EXPECT_EQ(parsed.workload, cell.workload);
  EXPECT_EQ(parsed.scale, cell.scale);
  EXPECT_EQ(parsed.technique, cell.technique);
  EXPECT_EQ(parsed.trials, cell.trials);
  EXPECT_EQ(parsed.seed, cell.seed);
  EXPECT_EQ(parsed.faults_per_run, cell.faults_per_run);
  EXPECT_EQ(parsed.burst, cell.burst);
  EXPECT_EQ(parsed.store_data, cell.store_data);
  EXPECT_EQ(parsed.jobs, cell.jobs);
  EXPECT_EQ(parsed.max_half_width, cell.max_half_width);
}

TEST(Proto, CellJsonFillsDefaultsForAbsentKeys) {
  telemetry::Json json = telemetry::Json::object();
  json["workload"] = "bfs";
  CampaignCell cell;
  std::string error;
  ASSERT_TRUE(service::cell_from_json(json, cell, error)) << error;
  const CampaignCell defaults;
  EXPECT_EQ(cell.trials, defaults.trials);
  EXPECT_EQ(cell.seed, defaults.seed);
  EXPECT_EQ(cell.technique, defaults.technique);
}

TEST(Proto, CellJsonIsStrict) {
  // A typo'd knob must be an error, not a silent default — otherwise the
  // mistyped cell would be cached under the wrong key forever.
  telemetry::Json misspelled = telemetry::Json::object();
  misspelled["workload"] = "bfs";
  misspelled["trails"] = static_cast<std::uint64_t>(500);
  CampaignCell cell;
  std::string error;
  EXPECT_FALSE(service::cell_from_json(misspelled, cell, error));

  telemetry::Json mistyped = telemetry::Json::object();
  mistyped["workload"] = "bfs";
  mistyped["trials"] = "500";  // string, not integer
  EXPECT_FALSE(service::cell_from_json(mistyped, cell, error));

  telemetry::Json invalid = telemetry::Json::object();
  invalid["technique"] = "ferrum";  // no program, no workload
  EXPECT_FALSE(service::cell_from_json(invalid, cell, error));
}

TEST(Proto, CellJsonRejectsWrongTypeForEveryKnownKey) {
  // Valid key, wrong JSON type: every knob must hard-error rather than
  // coerce — "trials": "100" silently read as 0 (or 100) would execute
  // and cache a different cell than the client wrote.
  const auto base = [] {
    telemetry::Json json = telemetry::Json::object();
    json["workload"] = "bfs";
    return json;
  };
  const auto rejects = [](telemetry::Json json) {
    CampaignCell cell;
    std::string error;
    const bool ok = service::cell_from_json(json, cell, error);
    EXPECT_FALSE(ok) << json.dump();
    if (!ok) {
      EXPECT_FALSE(error.empty());
    }
  };
  for (const char* key : {"scale", "trials", "seed", "faults_per_run",
                          "burst", "jobs"}) {
    telemetry::Json as_string = base();
    as_string[key] = "100";
    rejects(std::move(as_string));
    telemetry::Json as_double = base();
    as_double[key] = 100.0;
    rejects(std::move(as_double));
    telemetry::Json as_bool = base();
    as_bool[key] = true;
    rejects(std::move(as_bool));
    telemetry::Json as_object = base();
    as_object[key] = telemetry::Json::object();
    rejects(std::move(as_object));
  }
  for (const char* key : {"program", "workload", "technique"}) {
    telemetry::Json as_int = base();
    as_int[key] = static_cast<std::int64_t>(3);
    rejects(std::move(as_int));
    telemetry::Json as_object = base();
    as_object[key] = telemetry::Json::object();
    rejects(std::move(as_object));
  }
  for (const char* key : {"store_data", "prune"}) {
    telemetry::Json as_int = base();
    as_int[key] = static_cast<std::int64_t>(1);  // truthy is not bool
    rejects(std::move(as_int));
    telemetry::Json as_string = base();
    as_string[key] = "true";
    rejects(std::move(as_string));
  }
}

TEST(Proto, CellJsonRejectsOutOfRangeAndNegativeIntegers) {
  const auto rejects = [](telemetry::Json json) {
    CampaignCell cell;
    std::string error;
    EXPECT_FALSE(service::cell_from_json(json, cell, error)) << json.dump();
  };
  // int knobs: an int64/uint64 outside int range used to truncate in a
  // static_cast (4294967297 silently became trials=1).
  telemetry::Json wide = telemetry::Json::object();
  wide["workload"] = "bfs";
  wide["trials"] = static_cast<std::int64_t>(4294967297LL);
  rejects(std::move(wide));
  telemetry::Json huge = telemetry::Json::object();
  huge["workload"] = "bfs";
  huge["jobs"] = static_cast<std::uint64_t>(1) << 40;
  rejects(std::move(huge));
  telemetry::Json low = telemetry::Json::object();
  low["workload"] = "bfs";
  low["burst"] = static_cast<std::int64_t>(-4294967297LL);
  rejects(std::move(low));
  // seed is uint64: a negative value used to wrap to a huge seed.
  telemetry::Json negative_seed = telemetry::Json::object();
  negative_seed["workload"] = "bfs";
  negative_seed["seed"] = static_cast<std::int64_t>(-1);
  rejects(std::move(negative_seed));
  // Boundary values still parse: INT_MAX fits, and a uint64 seed keeps
  // its full width.
  telemetry::Json fine = telemetry::Json::object();
  fine["workload"] = "bfs";
  fine["trials"] = static_cast<std::int64_t>(2147483647);
  fine["seed"] = static_cast<std::uint64_t>(0xfeedfacecafebeefULL);
  CampaignCell cell;
  std::string error;
  EXPECT_TRUE(service::cell_from_json(fine, cell, error)) << error;
  EXPECT_EQ(cell.trials, 2147483647);
  EXPECT_EQ(cell.seed, 0xfeedfacecafebeefULL);
}

// ---------------------------------------------------------------------
// Content-addressed store.

std::string test_key(char fill) { return std::string(64, fill); }

TEST(ResultCache, MemoryRoundTripAndFirstWriterWins) {
  service::ResultCache cache("");
  EXPECT_FALSE(cache.lookup(test_key('a')).has_value());
  cache.store(test_key('a'), "first");
  cache.store(test_key('a'), "second");  // no-op by contract
  ASSERT_TRUE(cache.lookup(test_key('a')).has_value());
  EXPECT_EQ(*cache.lookup(test_key('a')), "first");
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ReplaceModeOverwritesAnExistingEntry) {
  // Section summaries need replace semantics: a key can hold a value
  // whose validation certificate went stale (the code it certified
  // changed), and the freshly re-campaigned summary must displace it or
  // the section stays permanently cold.
  const std::string dir = "tsvc-cache-rep-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    service::ResultCache cache(dir);
    cache.store(test_key('c'), "stale");
    cache.store(test_key('c'), "fresh");  // default: first writer wins
    EXPECT_EQ(*cache.lookup(test_key('c')), "stale");
    cache.store(test_key('c'), "fresh", /*replace=*/true);
    EXPECT_EQ(*cache.lookup(test_key('c')), "fresh");
    EXPECT_EQ(cache.entries(), 1u);
  }
  service::ResultCache reopened(dir);  // the disk tier was rewritten too
  const auto hit = reopened.lookup(test_key('c'));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "fresh");
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, DiskEntriesSurviveTheInstance) {
  const std::string dir =
      "tsvc-cache-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    service::ResultCache cache(dir);
    cache.store(test_key('b'), "{\"stored\":true}");
  }
  service::ResultCache reopened(dir);
  EXPECT_EQ(reopened.entries(), 0u);  // memory tier starts cold
  const auto hit = reopened.lookup(test_key('b'));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "{\"stored\":true}");
  EXPECT_EQ(reopened.entries(), 1u);  // promoted
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Daemon (in-process API).

constexpr const char* kTinyProgram = R"(
  int main() {
    int s = 0;
    for (int i = 0; i < 10; i++) s += i * i;
    print_int(s);
    return 0;
  })";

CampaignCell tiny_cell(int trials = 40) {
  CampaignCell cell;
  cell.program = kTinyProgram;
  cell.technique = "ferrum";
  cell.trials = trials;
  cell.jobs = 2;
  return cell;
}

std::uint64_t counter_value(service::Daemon& daemon, const char* name) {
  return daemon.metrics().counter(name).value();
}

TEST(Service, ColdThenWarmIsByteIdenticalWithZeroNewTrials) {
  service::Daemon daemon({/*workers=*/2, /*cache_dir=*/""});
  const std::uint64_t job = daemon.submit({tiny_cell()});
  const service::CellOutcome* cold = daemon.wait_cell(job, 0);
  ASSERT_NE(cold, nullptr);
  EXPECT_TRUE(cold->error.empty()) << cold->error;
  EXPECT_FALSE(cold->cached);
  ASSERT_FALSE(cold->result_json.empty());
  EXPECT_EQ(cold->key.size(), 64u);
  const std::string cold_bytes = cold->result_json;
  const std::uint64_t executed_after_cold =
      counter_value(daemon, "service/trials_executed");
  EXPECT_EQ(executed_after_cold, 40u);

  // Same cell again: answered from the store, byte-identical, and the
  // engine-trial counter proves nothing ran.
  const std::uint64_t warm_job = daemon.submit({tiny_cell()});
  const service::CellOutcome* warm = daemon.wait_cell(warm_job, 0);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->key, cold->key);
  EXPECT_EQ(warm->result_json, cold_bytes);
  EXPECT_TRUE(warm->wallclock_json.empty());  // nothing executed
  EXPECT_EQ(counter_value(daemon, "service/trials_executed"),
            executed_after_cold);
  EXPECT_EQ(counter_value(daemon, "service/cache/hits"), 1u);
  EXPECT_EQ(counter_value(daemon, "service/cache/misses"), 1u);
}

TEST(Service, WarmAcrossEngineKnobs) {
  service::Daemon daemon({2, ""});
  const std::uint64_t cold_job = daemon.submit({tiny_cell()});
  const service::CellOutcome* cold = daemon.wait_cell(cold_job, 0);
  ASSERT_NE(cold, nullptr);
  ASSERT_TRUE(cold->error.empty()) << cold->error;

  CampaignCell retuned = tiny_cell();
  retuned.jobs = 1;
  const std::uint64_t warm_job = daemon.submit({retuned});
  const service::CellOutcome* warm = daemon.wait_cell(warm_job, 0);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->key, cold->key);
  EXPECT_EQ(warm->result_json, cold->result_json);

  // A result-affecting knob, by contrast, misses and re-executes.
  CampaignCell reseeded = tiny_cell();
  reseeded.seed = 123;
  const std::uint64_t fresh_job = daemon.submit({reseeded});
  const service::CellOutcome* fresh = daemon.wait_cell(fresh_job, 0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(fresh->cached);
  EXPECT_NE(fresh->key, cold->key);
}

TEST(Service, MultiCellJobCompletesWithConsistentStatus) {
  service::Daemon daemon({2, ""});
  std::vector<CampaignCell> cells = {tiny_cell(30), tiny_cell(50)};
  cells.emplace_back();
  cells.back().workload = "bfs";
  cells.back().technique = "none";
  cells.back().trials = 20;
  const std::uint64_t job = daemon.submit(cells);
  EXPECT_EQ(daemon.job_cells(job), 3u);
  std::uint64_t expected_trials = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const service::CellOutcome* outcome = daemon.wait_cell(job, i);
    ASSERT_NE(outcome, nullptr);
    EXPECT_TRUE(outcome->error.empty()) << outcome->error;
    std::uint64_t sum = 0;
    for (const std::uint64_t count : outcome->counts) sum += count;
    EXPECT_EQ(sum, static_cast<std::uint64_t>(cells[i].trials));
    expected_trials += sum;
  }
  const service::JobStatus status = daemon.status(job);
  ASSERT_TRUE(status.known);
  EXPECT_TRUE(status.done());
  EXPECT_EQ(status.completed, 3u);
  EXPECT_EQ(status.failed, 0u);
  std::uint64_t so_far = 0;
  for (const std::uint64_t count : status.outcomes_so_far) so_far += count;
  EXPECT_EQ(so_far, expected_trials);
  EXPECT_FALSE(daemon.status(999).known);
  EXPECT_EQ(daemon.wait_cell(job, 99), nullptr);
}

TEST(Service, StatsCountTheGoldenStatesSnapshotBytes) {
  // Every golden state the daemon builds stays resident, so the counter
  // is the summed checkpoint footprint of the programs it has run: the
  // same bytes a default fault::Golden holds for each.
  service::Daemon daemon({2, ""});
  CampaignCell bfs;
  bfs.workload = "bfs";
  bfs.technique = "none";
  bfs.trials = 20;
  const std::uint64_t job = daemon.submit({tiny_cell(), bfs, tiny_cell(30)});
  for (std::size_t i = 0; i < 3; ++i) {
    const service::CellOutcome* outcome = daemon.wait_cell(job, i);
    ASSERT_NE(outcome, nullptr);
    ASSERT_TRUE(outcome->error.empty()) << outcome->error;
  }
  EXPECT_EQ(counter_value(daemon, "service/golden/built"), 2u);

  std::uint64_t expected = 0;
  const vm::VmOptions golden_options;
  for (const auto& [source, technique] :
       {std::pair{std::string(kTinyProgram), pipeline::Technique::kFerrum},
        std::pair{workloads::scaled("bfs", 1).source,
                  pipeline::Technique::kNone}}) {
    const auto build = pipeline::build(source, technique);
    expected +=
        fault::Golden(build.program, golden_options).ckpts.snapshot_bytes();
  }
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(counter_value(daemon, "service/golden/snapshot_bytes"), expected);
}

TEST(Service, ResultsAreInvariantAcrossWorkersAndSubmissionOrder) {
  std::vector<CampaignCell> cells = {tiny_cell(30), tiny_cell(45)};
  cells[1].technique = "none";
  cells.emplace_back();
  cells.back().workload = "bfs";
  cells.back().trials = 25;

  auto run_all = [](int workers, std::vector<CampaignCell> order) {
    service::Daemon daemon({workers, ""});
    const std::uint64_t job = daemon.submit(std::move(order));
    std::map<std::string, std::string> by_key;
    for (std::size_t i = 0; i < daemon.job_cells(job); ++i) {
      const service::CellOutcome* outcome = daemon.wait_cell(job, i);
      EXPECT_NE(outcome, nullptr);
      EXPECT_TRUE(outcome->error.empty()) << outcome->error;
      by_key[outcome->key] = outcome->result_json;
    }
    return by_key;
  };

  const auto narrow = run_all(1, cells);
  const auto wide = run_all(4, {cells[2], cells[0], cells[1]});
  EXPECT_EQ(narrow, wide);  // per-key bytes identical
}

TEST(Service, CoalescesIdenticalConcurrentCells) {
  // The same cell four times in one job: exactly one execution, the rest
  // served as hits (either coalesced behind the flight or from the
  // store, depending on scheduling).
  service::Daemon daemon({4, ""});
  const std::uint64_t job =
      daemon.submit({tiny_cell(), tiny_cell(), tiny_cell(), tiny_cell()});
  std::string bytes;
  for (std::size_t i = 0; i < 4; ++i) {
    const service::CellOutcome* outcome = daemon.wait_cell(job, i);
    ASSERT_NE(outcome, nullptr);
    ASSERT_TRUE(outcome->error.empty()) << outcome->error;
    if (bytes.empty()) bytes = outcome->result_json;
    EXPECT_EQ(outcome->result_json, bytes);
  }
  EXPECT_EQ(counter_value(daemon, "service/cells/executed"), 1u);
  EXPECT_EQ(counter_value(daemon, "service/trials_executed"), 40u);
}

TEST(Service, InvalidCellFailsWithoutPoisoningTheJob) {
  service::Daemon daemon({2, ""});
  CampaignCell bad;
  bad.workload = "no-such-workload";
  const std::uint64_t job = daemon.submit({bad, tiny_cell()});
  const service::CellOutcome* failed = daemon.wait_cell(job, 0);
  ASSERT_NE(failed, nullptr);
  EXPECT_FALSE(failed->error.empty());
  EXPECT_TRUE(failed->result_json.empty());
  const service::CellOutcome* good = daemon.wait_cell(job, 1);
  ASSERT_NE(good, nullptr);
  EXPECT_TRUE(good->error.empty()) << good->error;
  const service::JobStatus status = daemon.status(job);
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.failed, 1u);
}

TEST(Service, PrunedCellsCacheLikeAnyOther) {
  service::Daemon daemon({2, ""});
  CampaignCell cell = tiny_cell();
  cell.prune = true;
  const std::uint64_t cold_job = daemon.submit({cell});
  const service::CellOutcome* cold = daemon.wait_cell(cold_job, 0);
  ASSERT_NE(cold, nullptr);
  ASSERT_TRUE(cold->error.empty()) << cold->error;
  const std::uint64_t executed =
      counter_value(daemon, "service/trials_executed");
  EXPECT_GT(executed, 0u);
  EXPECT_LE(executed, 40u);  // pilots only, never more than the trials
  const std::uint64_t warm_job = daemon.submit({cell});
  const service::CellOutcome* warm = daemon.wait_cell(warm_job, 0);
  ASSERT_NE(warm, nullptr);
  EXPECT_TRUE(warm->cached);
  EXPECT_EQ(warm->result_json, cold->result_json);
  EXPECT_EQ(counter_value(daemon, "service/trials_executed"), executed);
}

TEST(Service, ProgressObserverMatchesFinalCounts) {
  const auto build =
      pipeline::build(kTinyProgram, pipeline::Technique::kFerrum);
  fault::CampaignProgress progress;
  fault::CampaignOptions options;
  options.trials = 64;
  options.jobs = 2;
  options.progress = &progress;
  const auto result = fault::run_campaign(build.program, options);
  EXPECT_EQ(progress.executed(), 64u);
  for (int i = 0; i < 4; ++i) {
    const auto outcome = static_cast<fault::Outcome>(i);
    EXPECT_EQ(progress.count(outcome),
              static_cast<std::uint64_t>(result.count(outcome)));
  }
}

// ---------------------------------------------------------------------
// Full conversation over a real unix socket.

struct ServedDaemon {
  explicit ServedDaemon(int workers)
      : socket_path("tsvc-" + std::to_string(::getpid()) + ".sock"),
        daemon({workers, ""}) {
    std::string error;
    listener = Listener::bind_unix(socket_path, &error);
    EXPECT_TRUE(listener.valid()) << error;
    server = std::thread([this] { daemon.serve(listener); });
  }
  ~ServedDaemon() {
    std::string error;
    service::Client client = service::Client::connect(socket_path, error);
    if (client.valid()) client.shutdown_server(error);
    server.join();
  }

  std::string socket_path;
  service::Daemon daemon;
  Listener listener;
  std::thread server;
};

TEST(ServiceSocket, FullClientConversation) {
  ServedDaemon served(2);
  std::string error;
  service::Client client =
      service::Client::connect(served.socket_path, error);
  ASSERT_TRUE(client.valid()) << error;

  std::vector<CampaignCell> cells = {tiny_cell(25), tiny_cell(35)};
  const auto job = client.submit(cells, error);
  ASSERT_TRUE(job.has_value()) << error;

  std::vector<service::CellResult> results;
  ASSERT_TRUE(client.results(
      *job, [&](const service::CellResult& r) { results.push_back(r); },
      error))
      << error;
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].cell, i);  // streamed in cell order
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    EXPECT_EQ(results[i].key.size(), 64u);
    ASSERT_FALSE(results[i].result_bytes.empty());
    const telemetry::Json* trials = results[i].result.find("trials");
    ASSERT_NE(trials, nullptr);
    EXPECT_EQ(trials->as_int(), cells[i].trials);
  }

  // The streamed bytes are the stored bytes: resubmitting over the wire
  // returns them verbatim, flagged as cached.
  const auto warm_job = client.submit(cells, error);
  ASSERT_TRUE(warm_job.has_value()) << error;
  std::vector<service::CellResult> warm;
  ASSERT_TRUE(client.results(
      *warm_job, [&](const service::CellResult& r) { warm.push_back(r); },
      error))
      << error;
  ASSERT_EQ(warm.size(), 2u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].cached);
    EXPECT_EQ(warm[i].result_bytes, results[i].result_bytes);
  }

  const auto status = client.status(*warm_job, error);
  ASSERT_TRUE(status.has_value()) << error;
  const telemetry::Json* completed = status->find("completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->as_uint(), 2u);

  const auto stats = client.stats(error);
  ASSERT_TRUE(stats.has_value()) << error;
  const telemetry::Json* service_node = stats->find("service");
  ASSERT_NE(service_node, nullptr);
}

TEST(ServiceSocket, RejectsMalformedRequestsButStaysUsable) {
  ServedDaemon served(1);
  std::string error;
  service::Client client =
      service::Client::connect(served.socket_path, error);
  ASSERT_TRUE(client.valid()) << error;

  // Invalid cell: rejected at submit time with a kError reply.
  CampaignCell bad;  // neither program nor workload
  EXPECT_FALSE(client.submit({bad}, error).has_value());
  EXPECT_FALSE(error.empty());

  // Unknown job id: the result stream answers kError.
  error.clear();
  EXPECT_FALSE(client.results(
      9999, [](const service::CellResult&) {}, error));
  EXPECT_FALSE(error.empty());

  // The connection survived both errors.
  const auto job = client.submit({tiny_cell(20)}, error);
  ASSERT_TRUE(job.has_value()) << error;
  std::size_t streamed = 0;
  EXPECT_TRUE(client.results(
      *job, [&](const service::CellResult&) { ++streamed; }, error))
      << error;
  EXPECT_EQ(streamed, 1u);
}

TEST(ServiceSocket, RetiredEngineKnobsAreUnknownFields) {
  // `batch`, `dispatch` and `ckpt_stride` were engine knobs that never
  // changed a result; all three are gone, and a cell that still carries
  // one gets the strict parser's unknown-field error naming it. The
  // daemon answers on.
  ServedDaemon served(1);
  std::string error;
  Conn raw = connect_unix(served.socket_path, &error);
  ASSERT_TRUE(raw.valid()) << error;
  service::Frame reply;
  for (const auto& [field, value] :
       {std::pair<const char*, telemetry::Json>{
            "batch", telemetry::Json(static_cast<std::int64_t>(8))},
        {"dispatch", telemetry::Json("threaded")},
        {"ckpt_stride", telemetry::Json(static_cast<std::int64_t>(16))}}) {
    telemetry::Json cell = service::cell_to_json(tiny_cell(20));
    cell[field] = value;
    telemetry::Json cells = telemetry::Json::array();
    cells.push_back(cell);
    telemetry::Json submit = telemetry::Json::object();
    submit["cells"] = cells;
    ASSERT_TRUE(service::write_frame(raw, service::MsgType::kSubmit, submit));
    ASSERT_TRUE(service::read_frame(raw, reply));
    EXPECT_EQ(reply.type, service::MsgType::kError);
    EXPECT_NE(reply.payload.find(std::string("unknown cell field '") + field +
                                 "'"),
              std::string::npos)
        << reply.payload;
  }
  ASSERT_TRUE(service::write_frame(raw, service::MsgType::kHello,
                                   std::string_view("{}")));
  ASSERT_TRUE(service::read_frame(raw, reply));
  EXPECT_EQ(reply.type, service::MsgType::kHelloReply);
}

TEST(ServiceSocket, DeeplyNestedInputsGetErrorsAndTheDaemonAnswersOn) {
  // Two inputs that used to kill the daemon with a stack overflow: a
  // 200 KB frame of nested JSON arrays, and an inline-MiniC cell whose
  // expression nests 20,000 parentheses deep. Both are now errors on an
  // open connection, and the daemon answers what comes next.
  ServedDaemon served(1);
  std::string error;
  Conn raw = connect_unix(served.socket_path, &error);
  ASSERT_TRUE(raw.valid()) << error;
  const std::string deep_json =
      std::string(100'000, '[') + std::string(100'000, ']');
  ASSERT_TRUE(service::write_frame(raw, service::MsgType::kSubmit,
                                   std::string_view(deep_json)));
  service::Frame reply;
  ASSERT_TRUE(service::read_frame(raw, reply));
  EXPECT_EQ(reply.type, service::MsgType::kError);
  EXPECT_NE(reply.payload.find("malformed JSON payload"), std::string::npos)
      << reply.payload;
  // Same connection, next request.
  ASSERT_TRUE(service::write_frame(raw, service::MsgType::kHello,
                                   std::string_view("{}")));
  ASSERT_TRUE(service::read_frame(raw, reply));
  EXPECT_EQ(reply.type, service::MsgType::kHelloReply);

  service::Client client =
      service::Client::connect(served.socket_path, error);
  ASSERT_TRUE(client.valid()) << error;
  CampaignCell deep = tiny_cell(20);
  deep.program = "int main() { int x = " + std::string(20'000, '(') + "1" +
                 std::string(20'000, ')') + "; print_int(x); return 0; }";
  const auto deep_job = client.submit({deep, tiny_cell(20)}, error);
  ASSERT_TRUE(deep_job.has_value()) << error;
  std::vector<service::CellResult> results;
  ASSERT_TRUE(client.results(
      *deep_job, [&](const service::CellResult& r) { results.push_back(r); },
      error))
      << error;
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].error.find("depth budget"), std::string::npos)
      << results[0].error.substr(0, 400);
  EXPECT_TRUE(results[1].error.empty()) << results[1].error;

  const auto job = client.submit({tiny_cell(25)}, error);
  ASSERT_TRUE(job.has_value()) << error;
  std::size_t answered = 0;
  EXPECT_TRUE(client.results(
      *job,
      [&](const service::CellResult& r) {
        EXPECT_TRUE(r.error.empty()) << r.error;
        ++answered;
      },
      error))
      << error;
  EXPECT_EQ(answered, 1u);
}

TEST(ServiceSocket, AWrappingAddressGetsAReplyAndTheDaemonAnswersOn) {
  // An inline-MiniC cell whose golden run addresses 2^64 - 4, where
  // `addr + size` wraps: the access used to reach past the VM's arena
  // and kill the daemon. It is now a memory trap, so the cell gets a
  // reply and the daemon answers the next request.
  ServedDaemon served(1);
  std::string error;
  service::Client client =
      service::Client::connect(served.socket_path, error);
  ASSERT_TRUE(client.valid()) << error;
  CampaignCell wrapping = tiny_cell(20);
  wrapping.program =
      "int a[4]; int main() { int i = -1025; print_int(a[i]); return 0; }";
  const auto job = client.submit({wrapping}, error);
  ASSERT_TRUE(job.has_value()) << error;
  std::size_t replies = 0;
  ASSERT_TRUE(client.results(
      *job, [&](const service::CellResult&) { ++replies; }, error))
      << error;
  EXPECT_EQ(replies, 1u);

  const auto next = client.submit({tiny_cell(25)}, error);
  ASSERT_TRUE(next.has_value()) << error;
  std::size_t answered = 0;
  EXPECT_TRUE(client.results(
      *next,
      [&](const service::CellResult& r) {
        EXPECT_TRUE(r.error.empty()) << r.error;
        ++answered;
      },
      error))
      << error;
  EXPECT_EQ(answered, 1u);
}

}  // namespace
}  // namespace ferrum
