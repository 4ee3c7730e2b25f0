//! `graphdance-node` — serve one node of a real multi-process GraphDance
//! cluster over the socket transport (`engine::transport::TcpTransport`).
//!
//! Every process is handed the same `Repro` line (the sim crate's replay
//! format) and deterministically builds the full graph from it, so all
//! processes agree on topology, schema, and placement without any data
//! shipping. The process then hosts only the workers of `--node`; see
//! `engine::NodeRuntime`.
//!
//! # Control protocol (stdin/stdout, line-oriented)
//!
//! The launcher (`graphdance::proc::ProcessCluster`) drives each child
//! through a tiny text protocol. All lines the child prints are flushed
//! immediately; the child prints nothing else on stdout.
//!
//! ```text
//! child → LISTEN <addr>          after binding (resolves port 0 / socket path)
//! parent → PEERS <a0> <a1> ...   resolved listen address of every node
//! child → READY                  mesh is up, workers + (head) coordinator live
//! parent → RUN                   head only: execute the repro's query
//! child → ROW <debug-of-row>     one line per result row (order unspecified)
//! child → DONE                   query finished (or ERR <msg> on failure)
//! parent → QUIT                  drain outboxes, close the mesh, exit
//! child → BYE                    shutdown complete
//! ```
//!
//! `RUN` may be issued repeatedly before `QUIT`. EOF on stdin is treated
//! as `QUIT` so an orphaned child unwinds cleanly when the launcher dies.
//!
//! # Usage
//!
//! ```text
//! graphdance-node --node <i> --repro "<repro line>" [--listen <addr>]
//! ```
//!
//! `--listen` defaults to `127.0.0.1:0` (ephemeral TCP port); pass
//! `unix:/path/to.sock` to serve over a Unix-domain socket instead.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use graphdance::common::NodeId;
use graphdance::engine::{EngineConfig, NodeRuntime, PeerAddr, TcpTransport, TcpTransportConfig};
use graphdance::storage::TS_LIVE;
use graphdance_sim::Repro;

struct Args {
    node: u32,
    repro: Repro,
    listen: PeerAddr,
}

fn parse_args() -> Result<Args, String> {
    let mut node = None;
    let mut repro = None;
    let mut listen = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--node" => node = Some(val()?.parse::<u32>().map_err(|e| e.to_string())?),
            "--repro" => repro = Some(Repro::parse(&val()?)?),
            "--listen" => listen = Some(PeerAddr::parse(&val()?).map_err(|e| e.to_string())?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let repro = repro.ok_or("missing --repro")?;
    if repro.faults != Default::default() {
        return Err("fault injection is sim-only; refuse to serve a faulty repro".into());
    }
    if repro.svc.is_some() {
        return Err("svc= workloads are sim-only; serve a plain repro".into());
    }
    Ok(Args {
        node: node.ok_or("missing --node")?,
        repro,
        listen: listen.unwrap_or_else(|| PeerAddr::Tcp("127.0.0.1:0".into())),
    })
}

fn serve(args: Args) -> Result<(), String> {
    let Args {
        node,
        repro,
        listen,
    } = args;
    if node >= repro.nodes {
        return Err(format!("--node {node} outside nodes={}", repro.nodes));
    }

    // Bind first — before any peer could dial us — with the real address in
    // our own slot and placeholders elsewhere; the resolved table arrives
    // over PEERS once every process has printed its LISTEN line.
    let placeholder = vec![listen.clone(); repro.nodes as usize];
    let transport = TcpTransport::bind(TcpTransportConfig::new(NodeId(node), placeholder))
        .map_err(|e| format!("bind {listen}: {e:?}"))?;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "LISTEN {}", transport.local_addr())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;

    // Deterministic replica of the cluster's data — identical in every
    // process because it derives only from the repro line.
    let graph = repro
        .graph
        .build_with_mode(repro.nodes, repro.workers, repro.part);
    let config = EngineConfig::new(repro.nodes, repro.workers)
        .with_seed(repro.seed)
        .with_io_mode(repro.io);
    let (plan, params) = repro.query.build(&graph);

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();

    let peers_line = match lines.next() {
        Some(l) => l.map_err(|e| e.to_string())?,
        None => return Ok(()), // launcher died before the mesh came up
    };
    let rest = peers_line
        .strip_prefix("PEERS ")
        .ok_or_else(|| format!("expected PEERS, got {peers_line:?}"))?;
    let peers = rest
        .split_whitespace()
        .map(|s| PeerAddr::parse(s).map_err(|e| format!("peer {s:?}: {e:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    if peers.len() != repro.nodes as usize {
        return Err(format!(
            "PEERS carried {} addresses for nodes={}",
            peers.len(),
            repro.nodes
        ));
    }
    transport.set_peers(peers);

    // Blocks until the outbound half of the mesh is dialled; peers are all
    // bound already (they printed LISTEN before the launcher sent PEERS).
    let runtime = NodeRuntime::start(graph, config, NodeId(node), transport);
    writeln!(out, "READY")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;

    for line in &mut lines {
        let line = line.map_err(|e| e.to_string())?;
        match line.as_str() {
            "RUN" => {
                if !runtime.is_head() {
                    writeln!(out, "ERR RUN sent to follower node {node}")
                } else {
                    // The live bulk snapshot: a node process takes no writes.
                    let handle = runtime.submit_at(&plan, params.clone(), TS_LIVE - 1);
                    match handle.wait() {
                        Ok(result) => {
                            for r in &result.rows {
                                writeln!(out, "ROW {r:?}").map_err(|e| e.to_string())?;
                            }
                            writeln!(out, "DONE")
                        }
                        Err(e) => writeln!(out, "ERR {e:?}"),
                    }
                }
                .and_then(|()| out.flush())
                .map_err(|e| e.to_string())?;
            }
            "QUIT" => break,
            other => return Err(format!("unknown command {other:?}")),
        }
    }

    // Drain-before-close: shutdown flushes every outbox, writes GOODBYE on
    // each outbound stream, and joins the reader threads — it returns only
    // once every peer has also said goodbye, so all processes must be told
    // to QUIT for any of them to exit (see `NodeRuntime::shutdown`).
    runtime.shutdown();
    writeln!(out, "BYE")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("graphdance-node: {e}");
            eprintln!(
                "usage: graphdance-node --node <i> --repro \"<repro line>\" [--listen <addr>]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = serve(args) {
        eprintln!("graphdance-node: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
