// Name -> factory registry over the assignment algorithms.
//
// Keeping the roster open-ended (Steindl & Zehavi's parameterized-
// assignment view, and the "one interface, many retrievers" idiom) means
// new variants plug in by registering a factory — no enum to extend, no
// switch to grow in benches or tests. The built-in algorithms register
// themselves on first access of Global(); external code may add more.
#ifndef FAIRMATCH_ENGINE_REGISTRY_H_
#define FAIRMATCH_ENGINE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fairmatch/engine/matcher.h"

namespace fairmatch {

/// Metadata + factory for one registered algorithm variant.
struct MatcherInfo {
  /// Registry key and display name (RunStats::algorithm).
  std::string name;
  /// One-line description (paper section reference).
  std::string description;
  /// Requires MatcherEnv::fn_store (SB-alt's batch search only makes
  /// sense over the on-disk sorted lists).
  bool needs_disk_functions = false;
  /// Requires MatcherEnv::packed_fns (the *-Packed variants traverse
  /// the packed blocks in impact order).
  bool needs_packed_functions = false;
  /// Physically deletes from MatcherEnv::tree (Chain); callers must
  /// hand such matchers a throwaway tree.
  bool mutates_tree = false;
  /// Reproduces the naive oracle bit-exactly even on instances with
  /// score ties. The SB family is stable-but-not-identical under ties
  /// (a dominated object can tie a skyline member), so parity tests
  /// compare it to the oracle only on tie-free instances.
  bool exact_under_ties = false;
  /// Reference implementation (naive oracle): correct by construction
  /// but O(P * |F| * |O|); excluded from benches.
  bool reference = false;
  /// Builds a ready-to-run matcher over `env`.
  std::function<std::unique_ptr<Matcher>(const MatcherEnv&)> factory;
};

/// String-keyed matcher factory registry.
///
/// Thread safety: Global()'s lazy construction (builtins included) is
/// synchronized by the magic static. After that, Find/Create/Names are
/// const and safe to call from any number of threads concurrently —
/// Server lanes (serve/server.h) resolve matchers this way. Register()
/// is NOT synchronized: register external variants before spawning
/// lanes.
class MatcherRegistry {
 public:
  /// The process-wide registry, with all built-in algorithms already
  /// registered.
  static MatcherRegistry& Global();

  /// Registers a variant. Re-registering a name replaces the entry
  /// (tests use this to stub variants). Not thread-safe: must not race
  /// with any other registry call.
  void Register(MatcherInfo info);

  /// Entry for `name`, or nullptr if unknown.
  const MatcherInfo* Find(const std::string& name) const;

  /// Constructs a ready-to-run matcher, or nullptr if `name` is unknown
  /// or `env` does not satisfy the variant's requirements (e.g. no
  /// fn_store for a needs_disk_functions matcher).
  std::unique_ptr<Matcher> Create(const std::string& name,
                                  const MatcherEnv& env) const;

  /// All registered names, sorted.
  std::vector<std::string> Names() const;

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, MatcherInfo> entries_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_ENGINE_REGISTRY_H_
