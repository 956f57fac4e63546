//! Runtime knobs of the SMR node event loop.

use std::time::Duration;

/// Configuration of [`run_smr_node_observed`](crate::run_smr_node_observed).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// First round's collect deadline (the adaptive band's starting point).
    pub initial_round_timeout: Duration,
    /// Floor of the adaptive deadline: the pace a fully timely mesh runs at.
    pub min_round_timeout: Duration,
    /// Ceiling of the adaptive deadline: the longest a round waits during
    /// a bad period before moving on.
    pub max_round_timeout: Duration,
    /// Hard stop, in rounds (`u64::MAX` for a long-running service).
    pub max_rounds: u64,
    /// Optional stop once this many commands applied locally (harness
    /// runs); `None` for a long-running service.
    pub stop_after_commands: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            initial_round_timeout: Duration::from_millis(50),
            min_round_timeout: Duration::from_millis(2),
            max_round_timeout: Duration::from_secs(1),
            max_rounds: u64::MAX,
            stop_after_commands: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_long_running_service() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.max_rounds, u64::MAX);
        assert!(cfg.stop_after_commands.is_none());
        assert!(cfg.min_round_timeout <= cfg.initial_round_timeout);
        assert!(cfg.initial_round_timeout <= cfg.max_round_timeout);
    }
}
