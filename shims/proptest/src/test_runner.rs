//! Case generation and execution (no shrinking).

use crate::strategy::Strategy;

/// Configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case was rejected by `prop_assume!` (skipped, not failed).
    Reject(String),
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// Builds a rejection.
    pub fn reject(message: impl Into<String>) -> Self {
        TestCaseError::Reject(message.into())
    }
}

/// The deterministic generator driving strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next 64 uniformly distributed bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The seed every runner starts from unless [`SEED_VAR`] names another.
const DEFAULT_SEED: u64 = 0x5D50_1997_C0FF_EE00;

/// The environment variable that overrides [`DEFAULT_SEED`]: a decimal or
/// `0x`-prefixed hexadecimal `u64`. A failing case prints the seed it ran
/// under, so setting this to it replays the failure.
const SEED_VAR: &str = "SDSO_PROPTEST_SEED";

/// Parses a seed as [`SEED_VAR`] spells it.
fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// The seed runners start from: [`SEED_VAR`] if set, else [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics if [`SEED_VAR`] is set but is not a `u64`.
fn seed() -> u64 {
    match std::env::var(SEED_VAR) {
        Ok(text) => parse_seed(&text)
            .unwrap_or_else(|| panic!("{SEED_VAR}={text:?} is not a decimal or 0x-hex u64")),
        Err(_) => DEFAULT_SEED,
    }
}

/// Runs one strategy over many generated cases.
#[derive(Debug)]
pub struct TestRunner {
    config: ProptestConfig,
    seed: u64,
    rng: TestRng,
}

impl TestRunner {
    /// Creates a runner seeded by [`seed`]: deterministic unless
    /// [`SEED_VAR`] is set.
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner::with_seed(config, seed())
    }

    /// Creates a runner with an explicit seed.
    fn with_seed(config: ProptestConfig, seed: u64) -> Self {
        TestRunner { config, seed, rng: TestRng::new(seed) }
    }

    /// Generates `config.cases` inputs and runs `test` on each. Returns
    /// the first failure, annotated with the generated input, the seed
    /// and the case's number (counting from 0 over every generated case,
    /// rejected ones included).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first failing case.
    pub fn run<S, F>(&mut self, strategy: &S, mut test: F) -> Result<(), String>
    where
        S: Strategy,
        S::Value: std::fmt::Debug,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        while accepted < self.config.cases {
            let case = accepted + rejected;
            // Bail out rather than spin when `prop_assume!` rejects nearly
            // everything the strategy can generate.
            if rejected > 16 * self.config.cases + 1024 {
                break;
            }
            let value = strategy.generate(&mut self.rng);
            let shown = format!("{value:?}");
            match test(value) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => rejected += 1,
                Err(TestCaseError::Fail(msg)) => {
                    return Err(format!(
                        "proptest case {case} failed after {accepted} passing case(s): \
                         {msg}; input = {shown}; seed = {seed:#x} (replay with {SEED_VAR}={seed:#x})",
                        seed = self.seed
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_is_deterministic() {
        let strategy = 0u64..1000;
        let collect = || {
            let mut out = Vec::new();
            TestRunner::new(ProptestConfig::with_cases(16))
                .run(&strategy, |v| {
                    out.push(v);
                    Ok(())
                })
                .unwrap();
            out
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_reports_input() {
        let err = TestRunner::new(ProptestConfig::with_cases(64))
            .run(&(0u64..10), |v| if v >= 5 { Err(TestCaseError::fail("too big")) } else { Ok(()) })
            .unwrap_err();
        assert!(err.contains("too big"), "{err}");
        assert!(err.contains("input ="), "{err}");
    }

    #[test]
    fn failure_reports_seed_and_case_and_replays() {
        let strategy = 0u64..1_000_000;
        let fail_at_third = |seed| {
            let mut seen = 0;
            TestRunner::with_seed(ProptestConfig::with_cases(64), seed)
                .run(&strategy, |_| {
                    seen += 1;
                    if seen == 3 {
                        Err(TestCaseError::fail("third"))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err()
        };
        let err = fail_at_third(0xABC);
        assert!(err.starts_with("proptest case 2 failed"), "{err}");
        assert!(err.contains("seed = 0xabc"), "{err}");
        assert!(err.contains("SDSO_PROPTEST_SEED=0xabc"), "{err}");
        // The same seed generates the same input; another seed does not.
        assert_eq!(err, fail_at_third(0xABC));
        assert_ne!(err, fail_at_third(0xABD));
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed(" 0x2a\n"), Some(42));
        assert_eq!(parse_seed("0x5D501997C0FFEE00"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("0xzz"), None);
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn rejection_exhaustion_terminates() {
        TestRunner::new(ProptestConfig::with_cases(8))
            .run(&(0u64..10), |_| Err(TestCaseError::reject("never")))
            .unwrap();
    }
}
