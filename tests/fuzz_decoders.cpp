// Deterministic mutation fuzzer for the JSON document decoders:
// ScenarioSpec, LifetimeSpec, SweepManifest and FleetStudySpec
// from_json. Seeds are the builtin manifests ("table1", "sweep_sigma")
// and the builtin fleet studies with their scenario and lifetime parts;
// each input applies seeded byte flips, truncations, token insertions and
// splices between seeds, and is fed to all four decoders. The property:
// every input either fails with a non-empty error (leaving *out
// untouched) or yields a value whose to_json() re-parses to identical
// bytes. A fixed Rng seed makes every run the same inputs.
#include <string>
#include <vector>

#include "eval/fleet.h"
#include "eval/manifest.h"
#include "test_common.h"

using namespace qavat;

namespace {

constexpr int kMutantsPerSeed = 300;

struct Tally {
  const char* name;
  long accepted = 0;
  long rejected = 0;
};

// Decode `input` as T and check the property; `sentinel` is a valid
// value a failed decode must leave in place.
template <typename T>
void check(const std::string& input, const T& sentinel, Tally* tally) {
  T out = sentinel;
  std::string err;
  if (!T::from_json(input, &out, &err)) {
    ++tally->rejected;
    if (err.empty() || out.to_json() != sentinel.to_json()) {
      std::printf("FAIL %s: rejected with error '%s'%s for: %s\n",
                  tally->name, err.c_str(),
                  err.empty() ? "" : " but modified *out", input.c_str());
      ++qavat::test::failures;
    }
    return;
  }
  ++tally->accepted;
  const std::string once = out.to_json();
  T back;
  if (!T::from_json(once, &back, &err) || back.to_json() != once) {
    std::printf("FAIL %s: accepted value does not round-trip (%s): %s\n",
                tally->name, err.c_str(), input.c_str());
    ++qavat::test::failures;
  }
}

std::string mutate(const std::vector<std::string>& seeds, std::size_t s,
                   Rng& rng) {
  static const char* const kTokens[] = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\"x\":", "1e999", "-0",
      "99999999999999999999", "-1", "1.5", "true", "null", "\"schema\":1,",
      ",\"n_chip\":1", "[[[[", "}}}}"};
  std::string doc = seeds[s];
  const int n_ops = 1 + static_cast<int>(rng.below(2));
  for (int op = 0; op < n_ops; ++op) {
    const std::size_t pos = static_cast<std::size_t>(
        rng.below(static_cast<index_t>(doc.size()) + 1));
    switch (rng.below(4)) {
      case 0:  // flip one byte; a digit mostly stays a digit, so many
               // mutants remain valid and reach the decoders' value paths
        if (pos < doc.size()) {
          const bool digit = doc[pos] >= '0' && doc[pos] <= '9';
          doc[pos] = static_cast<char>(digit && rng.below(4) != 0
                                           ? '0' + rng.below(10)
                                           : rng.below(256));
        }
        break;
      case 1:  // truncate
        doc.resize(pos);
        break;
      case 2:  // insert a token
        doc.insert(pos,
                   kTokens[rng.below(sizeof(kTokens) / sizeof(*kTokens))]);
        break;
      default: {  // splice a slice of any seed over the tail
        const std::string& from = seeds[static_cast<std::size_t>(
            rng.below(static_cast<index_t>(seeds.size())))];
        const std::size_t a = static_cast<std::size_t>(
            rng.below(static_cast<index_t>(from.size())));
        const std::size_t len = static_cast<std::size_t>(rng.below(96));
        doc.replace(pos, static_cast<std::size_t>(rng.below(96)),
                    from.substr(a, len));
        break;
      }
    }
  }
  return doc;
}

}  // namespace

int main() {
  std::vector<std::string> seeds;
  SweepManifest manifest;
  for (const std::string& name : builtin_manifest_names()) {
    CHECK(builtin_manifest(name, &manifest));
    seeds.push_back(manifest.to_json());
  }
  FleetStudySpec study;
  for (const std::string& name : builtin_fleet_names()) {
    CHECK(builtin_fleet_study(name, &study));
    seeds.push_back(study.to_json());
    seeds.push_back(study.scenario.to_json());
    seeds.push_back(study.lifetime.to_json());
  }

  Tally scenario{"ScenarioSpec"}, lifetime{"LifetimeSpec"},
      sweep{"SweepManifest"}, fleet{"FleetStudySpec"};
  Rng rng(0x5eedf00dULL);
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      const std::string input = mutate(seeds, s, rng);
      check(input, study.scenario, &scenario);
      check(input, study.lifetime, &lifetime);
      check(input, manifest, &sweep);
      check(input, study, &fleet);
    }
  }
  for (const Tally* t : {&scenario, &lifetime, &sweep, &fleet}) {
    std::printf("%s: %ld accepted, %ld rejected\n", t->name, t->accepted,
                t->rejected);
    CHECK(t->accepted > 0);  // the mutants reach the decoders' success path
  }
  return qavat::test::finish("fuzz_decoders");
}
