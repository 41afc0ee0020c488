//! Spawning the shipped `asap-server` binary as its own process.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the server may take to report its listening addresses.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A running server; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Process id, for `/proc` reads.
    pub pid: u32,
    /// Bound ingest address.
    pub ingest: SocketAddr,
    /// Bound query address.
    pub query: SocketAddr,
}

/// Finds `key=<addr>` on a structured `event=listening` log line.
pub fn parse_listening(log: &str) -> Option<(SocketAddr, SocketAddr)> {
    let line = log.lines().find(|l| l.contains("event=listening"))?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    Some((field("ingest=")?, field("query=")?))
}

impl ServerProc {
    /// Starts `binary` with `args`, its log going to `log_path`, and
    /// waits until it listens.
    pub fn spawn(binary: &Path, args: &[String], log_path: &Path) -> Result<ServerProc, String> {
        let log = std::fs::File::create(log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let child = Command::new(binary)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let pid = child.id();
        let mut server = ServerProc {
            child,
            pid,
            ingest: ([127, 0, 0, 1], 0).into(),
            query: ([127, 0, 0, 1], 0).into(),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(log_path).unwrap_or_default();
            if let Some((ingest, query)) = parse_listening(&text) {
                server.ingest = ingest;
                server.query = query;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "asap-server exited during start ({status}): {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err("asap-server did not start listening in time".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory inside the checkout, emptied on creation and
/// removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates (or empties) `path`.
    pub fn fresh(path: PathBuf) -> Result<WorkDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_addresses_come_from_the_structured_log() {
        let log = "level=info component=server event=wal_replayed applied=0\n\
                   level=info component=server event=listening ingest=127.0.0.1:40001 \
                   query=127.0.0.1:40002 verbs=SMOOTH|RANGE\n";
        let (i, q) = parse_listening(log).unwrap();
        assert_eq!(i.port(), 40001);
        assert_eq!(q.port(), 40002);
        assert_eq!(
            parse_listening("level=info event=listening ingest=x\n"),
            None
        );
        assert_eq!(parse_listening(""), None);
    }
}
