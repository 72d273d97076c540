/**
 * @file
 * Centralized RNG seeding for randomized tests and fuzz runs.
 *
 * Every stochastic test and every `dvi-fuzz` campaign resolves its
 * seed through testSeed(): the `DVI_TEST_SEED` environment variable
 * overrides the built-in fallback, and the resolved seed is logged to
 * stderr, so any randomized failure is replayable from its log line
 * alone. mixSeed() derives per-case sub-seeds (e.g. one per
 * parameterized test instance or generated program) so an override
 * reproduces the whole family deterministically.
 */

#ifndef DVI_BASE_TEST_SEED_HH
#define DVI_BASE_TEST_SEED_HH

#include <cstdint>
#include <optional>

#include "base/cli.hh"

namespace dvi
{

/**
 * Resolve the base seed for a randomized run: the value of
 * `DVI_TEST_SEED` when set (decimal or 0x-hex), else `fallback`.
 * Logs "<label>: seed <value> (override with DVI_TEST_SEED)" to
 * stderr so the run is replayable.
 */
std::uint64_t testSeed(std::uint64_t fallback, const char *label);

/** testSeed without the log line (for per-iteration lookups). */
std::uint64_t testSeedQuiet(std::uint64_t fallback);

/** A tool's --seed: its value where the flag is given, else the
 * DVI_TEST_SEED override of `fallback`, read only then. */
class SeedOption
{
  public:
    explicit SeedOption(std::uint64_t fallback) : fallback_(fallback) {}

    SeedOption(const SeedOption &) = delete;
    SeedOption &operator=(const SeedOption &) = delete;

    cli::Flag
    flag(const char *value, const char *help)
    {
        return {"--seed", value, help, cli::store(given_)};
    }

    std::uint64_t
    value() const
    {
        return given_ ? *given_ : testSeedQuiet(fallback_);
    }

  private:
    std::uint64_t fallback_;
    std::optional<std::uint64_t> given_;
};

/**
 * Derive a decorrelated sub-seed from a base seed and a salt
 * (splitmix64 over their combination; never returns 0, so the result
 * is always a valid Rng seed).
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

} // namespace dvi

#endif // DVI_BASE_TEST_SEED_HH
