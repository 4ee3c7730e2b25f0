//! Process-cluster launcher: run a GraphDance cluster as N OS processes.
//!
//! [`ProcessCluster`] spawns one `graphdance-node` child per node of a
//! `Repro` line, wires the mesh over loopback sockets, and drives the
//! stdin/stdout control protocol documented in `src/bin/graphdance-node.rs`:
//!
//! 1. spawn every child with the same repro line and `--listen` on an
//!    ephemeral address (TCP port 0, or a fresh Unix socket path);
//! 2. collect each child's `LISTEN <addr>` line (the resolved address);
//! 3. broadcast the full peer table as one `PEERS ...` line;
//! 4. wait for every child's `READY` (the n·(n−1) stream mesh is up);
//! 5. on [`ProcessCluster::run`], tell the head `RUN` and collect `ROW`
//!    lines until `DONE`;
//! 6. on [`ProcessCluster::shutdown`], send `QUIT` to **all** children
//!    concurrently — the drain-before-close handshake means no process's
//!    shutdown completes until every peer's does — then wait for exits.
//!
//! Tests obtain the child binary's path from Cargo:
//! `env!("CARGO_BIN_EXE_graphdance-node")` (available to this package's
//! tests and benches). The path is a parameter so non-test callers can
//! point at an installed binary.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use graphdance_common::{GdError, GdResult};
pub use graphdance_engine::SocketFamily;
use graphdance_sim::Repro;

/// A running multi-process cluster (see module docs for the lifecycle).
///
/// Dropping a `ProcessCluster` without calling [`ProcessCluster::shutdown`]
/// kills the children outright — fine for tests that already failed, but
/// the graceful path is the one that exercises drain-before-close.
pub struct ProcessCluster {
    children: Vec<Child>,
    stdins: Vec<ChildStdin>,
    stdouts: Vec<BufReader<ChildStdout>>,
}

impl ProcessCluster {
    /// Launch over loopback TCP. See [`ProcessCluster::launch_with_family`].
    pub fn launch(bin: impl AsRef<Path>, repro_line: &str) -> GdResult<ProcessCluster> {
        Self::launch_with_family(bin, repro_line, SocketFamily::Tcp)
    }

    /// Spawn one `graphdance-node` process per node of `repro_line` and
    /// block until the whole mesh reports `READY`.
    pub fn launch_with_family(
        bin: impl AsRef<Path>,
        repro_line: &str,
        family: SocketFamily,
    ) -> GdResult<ProcessCluster> {
        let repro = Repro::parse(repro_line).map_err(GdError::InvalidProgram)?;
        let n = repro.nodes as usize;

        let mut cluster = ProcessCluster {
            children: Vec::with_capacity(n),
            stdins: Vec::with_capacity(n),
            stdouts: Vec::with_capacity(n),
        };
        for node in 0..n {
            let mut child = Command::new(bin.as_ref())
                .arg("--node")
                .arg(node.to_string())
                .arg("--repro")
                .arg(repro_line)
                .arg("--listen")
                .arg(family.fresh_addr().to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                // stderr inherits: child panics land in the test output.
                .spawn()
                .map_err(|e| io_err("spawn graphdance-node", &e))?;
            cluster
                .stdins
                .push(child.stdin.take().expect("stdin piped"));
            cluster
                .stdouts
                .push(BufReader::new(child.stdout.take().expect("stdout piped")));
            cluster.children.push(child);
        }

        // Gather every child's resolved listen address...
        let mut peers = Vec::with_capacity(n);
        for node in 0..n {
            let line = cluster.read_line(node)?;
            let addr = line.strip_prefix("LISTEN ").ok_or_else(|| {
                GdError::InvalidProgram(format!("node {node}: expected LISTEN, got {line:?}"))
            })?;
            peers.push(addr.to_string());
        }
        // ...broadcast the table, then wait for the mesh.
        let table = format!("PEERS {}\n", peers.join(" "));
        for node in 0..n {
            cluster.write_all(node, &table)?;
        }
        for node in 0..n {
            cluster.expect_line(node, "READY")?;
        }
        Ok(cluster)
    }

    /// Execute the repro's query on the head node and return one
    /// `format!("{row:?}")` string per result row, in arrival order.
    ///
    /// Compare row **multisets** (sort both sides), exactly like
    /// `graphdance_sim::check_detailed` normalizes rows — arrival order is
    /// schedule-dependent on a real network.
    pub fn run(&mut self) -> GdResult<Vec<String>> {
        self.write_all(0, "RUN\n")?;
        let mut rows = Vec::new();
        loop {
            let line = self.read_line(0)?;
            if let Some(row) = line.strip_prefix("ROW ") {
                rows.push(row.to_string());
            } else if line == "DONE" {
                return Ok(rows);
            } else if let Some(msg) = line.strip_prefix("ERR ") {
                return Err(GdError::InvalidProgram(format!("head: {msg}")));
            } else {
                return Err(GdError::InvalidProgram(format!(
                    "head: unexpected line {line:?}"
                )));
            }
        }
    }

    /// Gracefully stop every process: `QUIT` is sent to all children
    /// *before* waiting on any (each child's shutdown blocks until its
    /// peers also drain — quitting them one at a time would deadlock).
    pub fn shutdown(mut self) -> GdResult<()> {
        for node in 0..self.children.len() {
            self.write_all(node, "QUIT\n")?;
        }
        for node in 0..self.children.len() {
            self.expect_line(node, "BYE")?;
        }
        for (node, child) in self.children.iter_mut().enumerate() {
            let status = child
                .wait()
                .map_err(|e| io_err(&format!("wait node {node}"), &e))?;
            if !status.success() {
                return Err(GdError::InvalidProgram(format!(
                    "node {node} exited with {status}"
                )));
            }
        }
        self.children.clear();
        Ok(())
    }

    fn write_all(&mut self, node: usize, s: &str) -> GdResult<()> {
        self.stdins[node]
            .write_all(s.as_bytes())
            .and_then(|()| self.stdins[node].flush())
            .map_err(|e| io_err(&format!("write to node {node}"), &e))
    }

    fn read_line(&mut self, node: usize) -> GdResult<String> {
        let mut line = String::new();
        let read = self.stdouts[node]
            .read_line(&mut line)
            .map_err(|e| io_err(&format!("read from node {node}"), &e))?;
        if read == 0 {
            return Err(GdError::InvalidProgram(format!(
                "node {node} closed its stdout (crashed?)"
            )));
        }
        Ok(line.trim_end_matches('\n').to_string())
    }

    fn expect_line(&mut self, node: usize, want: &str) -> GdResult<()> {
        let line = self.read_line(node)?;
        if line != want {
            return Err(GdError::InvalidProgram(format!(
                "node {node}: expected {want}, got {line:?}"
            )));
        }
        Ok(())
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        // Abnormal teardown only (shutdown() drains `children`).
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn io_err(what: &str, e: &std::io::Error) -> GdError {
    GdError::InvalidProgram(format!("process cluster: {what}: {e}"))
}
