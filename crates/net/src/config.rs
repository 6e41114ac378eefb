//! Server configuration: the bind address, the admission-control limits
//! and the wire shutdown switch.

/// Configuration of a [`Server`](crate::Server).
///
/// The defaults are sized for a local serving tier under synthetic load
/// (thousands of concurrent clients); every limit exists so that one
/// misbehaving client cannot starve the rest — the serving-tier analogue of
/// the paper's bounded-resource scheduling problem.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Maximum simultaneously-connected sessions; further connections are
    /// refused with a structured `rejected` line and closed.
    pub max_connections: usize,
    /// Per-client quota: the most jobs one session may have pending or
    /// executing at once. An over-quota submit is answered immediately with
    /// a `rejected` line naming the client and this limit.
    pub per_client_quota: usize,
    /// Server-wide bound on pending + executing jobs across all sessions —
    /// the backpressure valve. Submits beyond it are rejected immediately
    /// with `scope":"server"`.
    pub max_pending_jobs: usize,
    /// Longest accepted request line, in bytes. An oversized line gets a
    /// structured `error` line and the connection is closed (the session
    /// cannot resynchronise mid-line).
    pub max_line_bytes: usize,
    /// Whether the wire `{"cmd":"shutdown"}` command may initiate a drain.
    pub allow_shutdown_command: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 4096,
            per_client_quota: 8,
            max_pending_jobs: 2048,
            max_line_bytes: 1 << 20,
            allow_shutdown_command: true,
        }
    }
}

impl ServerConfig {
    /// Validates the limits; every bound must leave room for at least one
    /// unit of work.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_connections == 0 {
            return Err("max_connections: the server must accept at least one connection".into());
        }
        if self.per_client_quota == 0 {
            return Err("per_client_quota: each client needs at least one job in flight".into());
        }
        if self.max_pending_jobs < self.per_client_quota {
            return Err(format!(
                "max_pending_jobs: the server-wide bound ({}) must be at least the per-client \
                 quota ({})",
                self.max_pending_jobs, self.per_client_quota
            ));
        }
        if self.max_line_bytes < 2 {
            return Err("max_line_bytes: a request line needs at least two bytes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ServerConfig::default()
            .validate()
            .expect("defaults are sane");
    }

    #[test]
    fn validation_names_the_offending_knob() {
        let mut config = ServerConfig {
            max_connections: 0,
            ..ServerConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("max_connections"));
        config.max_connections = 1;
        config.per_client_quota = 0;
        assert!(config.validate().unwrap_err().contains("per_client_quota"));
        config.per_client_quota = 8;
        config.max_pending_jobs = 4;
        let err = config.validate().unwrap_err();
        assert!(err.contains("max_pending_jobs"), "{err}");
        assert!(err.contains('8'), "names the quota: {err}");
        config.max_pending_jobs = 2048;
        config.max_line_bytes = 1;
        assert!(config.validate().unwrap_err().contains("max_line_bytes"));
    }
}
