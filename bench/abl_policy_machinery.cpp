// Ablation E7: cost of the policy machinery — repository lookups vs. size
// (cached and after a write), obligation parsing, compilation, LDIF round
// trips and filter evaluation.
#include <benchmark/benchmark.h>

#include "apps/video_model.hpp"
#include "distribution/admin.hpp"
#include "distribution/repository.hpp"
#include "ldapdir/ldif.hpp"
#include "policy/compile.hpp"
#include "policy/parser.hpp"

using namespace softqos;

namespace {

policy::PolicySpec numberedPolicy(int i) {
  policy::PolicySpec spec = policy::parseObligation(apps::videoPolicyText(
      "policy-" + std::to_string(i), 20.0 + i % 10, 2, 2, 1.25));
  spec.application = "VideoConference";
  if (i % 3 == 1) spec.userRole = "gold";
  if (i % 3 == 2) spec.userRole = "silver";
  return spec;
}

void seed(distribution::RepositoryService& repo, int policies) {
  apps::seedVideoModel(repo);
  for (int i = 0; i < policies; ++i) repo.addPolicy(numberedPolicy(i));
}

/// Policy lookup at registration time vs. repository size.
void BM_PoliciesForLookup(benchmark::State& state) {
  distribution::RepositoryService repo;
  seed(repo, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        repo.policiesFor("VideoConference", "VideoApplication", "gold"));
  }
  state.SetLabel(std::to_string(state.range(0)) + " policies");
}
BENCHMARK(BM_PoliciesForLookup)->Arg(4)->Arg(32)->Arg(128);

/// The same lookup after an admin write: disabling and re-enabling a policy
/// the lookup matches drops its decoded copy, so each lookup decodes it
/// again (the write-then-read path of an auto-push).
void BM_PoliciesForLookupAfterWrite(benchmark::State& state) {
  distribution::RepositoryService repo;
  seed(repo, static_cast<int>(state.range(0)));
  distribution::AdminTool admin(repo);
  for (auto _ : state) {
    admin.disablePolicy("policy-1");
    admin.enablePolicy("policy-1");
    benchmark::DoNotOptimize(
        repo.policiesFor("VideoConference", "VideoApplication", "gold"));
  }
  state.SetLabel(std::to_string(state.range(0)) + " policies");
}
BENCHMARK(BM_PoliciesForLookupAfterWrite)->Arg(128);

/// Obligation-notation parse (Example 1).
void BM_ObligationParse(benchmark::State& state) {
  const std::string text = apps::defaultVideoPolicyText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::parseObligation(text));
  }
}
BENCHMARK(BM_ObligationParse);

/// Compile to the Section 5.2 wire format.
void BM_PolicyCompile(benchmark::State& state) {
  const policy::PolicySpec spec =
      policy::parseObligation(apps::defaultVideoPolicyText());
  const auto sensorFor = [](const std::string& attr) -> std::string {
    if (attr == "frame_rate") return "fps_sensor";
    if (attr == "jitter_rate") return "jitter_sensor";
    return "buffer_sensor";
  };
  int nextId = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::compilePolicy(spec, sensorFor, nextId));
  }
}
BENCHMARK(BM_PolicyCompile);

/// Repository export -> LDIF text -> fresh repository.
void BM_LdifRoundTrip(benchmark::State& state) {
  distribution::RepositoryService repo;
  seed(repo, static_cast<int>(state.range(0)));
  const std::string ldif = repo.exportLdif();
  for (auto _ : state) {
    distribution::RepositoryService fresh;
    benchmark::DoNotOptimize(fresh.uploadLdif(ldif));
  }
  state.SetLabel(std::to_string(state.range(0)) + " policies, " +
                 std::to_string(ldif.size() / 1024) + " KiB LDIF");
}
BENCHMARK(BM_LdifRoundTrip)->Arg(4)->Arg(32);

/// Search filter parse + evaluation over the policy subtree.
void BM_FilterSearch(benchmark::State& state) {
  distribution::RepositoryService repo;
  seed(repo, 64);
  const ldapdir::Filter filter = ldapdir::Filter::parse(
      "(&(objectClass=qosPolicy)(userRole=gold)(!(enabled=FALSE)))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(repo.directory().search(
        policy::dit::policies(), ldapdir::SearchScope::kOneLevel, filter));
  }
}
BENCHMARK(BM_FilterSearch);

/// DN parsing (the hot path of every directory operation).
void BM_DnParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ldapdir::Dn::parse("cn=policy-17,ou=policies,o=uwo"));
  }
}
BENCHMARK(BM_DnParse);

}  // namespace

BENCHMARK_MAIN();
