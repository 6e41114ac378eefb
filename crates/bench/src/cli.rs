//! Shared command-line helpers for the experiment binaries.

use drhw_engine::Engine;

/// Builds the job engine the experiment binaries share — default registry
/// and plan-cache capacity, worker count from `DRHW_SIM_THREADS` or the
/// available hardware parallelism — and prints the standard banner, so
/// every experiment binary reports the same one.
pub fn engine() -> Engine {
    let engine = Engine::builder().build();
    println!(
        "job engine: {} worker thread(s), plan cache capacity {}",
        engine.threads(),
        drhw_engine::DEFAULT_CACHE_CAPACITY
    );
    engine
}

/// Parses the iteration count from the first CLI argument, falling back to
/// `default` when no argument is given.
///
/// Exits with status 2 (and a message on stderr) when the argument is not a
/// positive integer: every experiment needs at least one iteration, and a
/// clean CLI error beats the `SimError::NoIterations` panic the simulation
/// layer would otherwise raise through the binaries' `expect`s.
pub fn iterations_arg(default: usize) -> usize {
    match std::env::args().nth(1) {
        None => default,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: expected a positive iteration count, got {raw:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Reads an unsigned-integer environment knob: `default` when `name` is
/// unset, an error naming the variable when its value is not an unsigned
/// integer — a typo in a knob must not silently run the default.
///
/// # Errors
///
/// Returns the message to print when the value does not parse.
pub fn env_usize(name: &str, default: usize) -> Result<usize, String> {
    parse_usize(name, std::env::var(name).ok().as_deref(), default)
}

fn parse_usize(name: &str, raw: Option<&str>, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(raw) => raw
            .trim()
            .parse()
            .map_err(|_| format!("{name}: expected an unsigned integer, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_values_parse_strictly() {
        assert_eq!(parse_usize("KNOB", None, 5), Ok(5));
        assert_eq!(parse_usize("KNOB", Some(" 12 "), 5), Ok(12));
        assert_eq!(parse_usize("KNOB", Some("0"), 5), Ok(0));
        for bad in ["", "abc", "-1", "2.5", "1e3"] {
            let err = parse_usize("KNOB", Some(bad), 5).unwrap_err();
            assert!(err.starts_with("KNOB:"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
