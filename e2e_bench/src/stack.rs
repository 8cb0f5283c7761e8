//! The stack under measurement, stood up in-process exactly as a
//! deployment wires it: `LoggedWriter` over a durable `OperationLog` →
//! `ReplicaPool`/`FleetRouter` → `SagaServer` → clients over localhost
//! TCP. Every knob that sets a number is a constant here and echoed in
//! the output (repeatability rule 6).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use saga_core::{KnowledgeGraph, Lsn, Result, SagaError};
use saga_fleet::{FleetConfig, FleetController, FleetRouter, ReplicaPool};
use saga_graph::{CheckpointWriter, FlushPolicy, LoggedWriter, OperationLog};
use saga_net::{PoolConfig, SagaClient, SagaPool, SagaServer, ServerConfig};

/// Serving replicas.
pub const REPLICAS: usize = 2;
/// Lock stripes per replica store.
pub const SHARDS: usize = 2;
/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;
/// Durability of every append.
pub const FLUSH_POLICY: FlushPolicy = FlushPolicy::Flush;
/// The durable log's file name inside a stack directory.
pub const LOG_FILE: &str = "oplog.jsonl";
/// The checkpoint directory's name inside a stack directory.
pub const CKPT_DIR: &str = "ckpt";

/// The fleet configuration: the defaults (2 ms staggered polls) at the
/// harness's replica and shard counts.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        replicas: REPLICAS,
        shards: SHARDS,
        ..FleetConfig::default()
    }
}

/// One line naming every fixed knob, for the run header.
pub fn knobs() -> String {
    let fleet = fleet_config();
    format!(
        "replicas={REPLICAS} shards={SHARDS} poll_interval={:?} stagger_polls={} \
         server_workers={SERVER_WORKERS} flush_policy={FLUSH_POLICY:?} fence_commits={}",
        fleet.poll_interval,
        fleet.stagger_polls,
        PoolConfig::default().fence_commits,
    )
}

/// A running stack rooted at one scratch directory.
pub struct Stack {
    /// Holds the durable log and the checkpoint directory.
    pub dir: PathBuf,
    /// The write-ahead entry point the server commits through.
    pub writer: Arc<LoggedWriter>,
    /// The serving fleet.
    pub fleet: Arc<ReplicaPool>,
    /// The fleet's query surface.
    pub router: Arc<FleetRouter>,
    /// The TCP front end.
    pub server: SagaServer,
    /// Publishes checkpoints of the writer's graph into [`CKPT_DIR`].
    pub checkpoints: CheckpointWriter,
}

impl Stack {
    /// Stand the stack up over an empty `dir`.
    pub fn start(dir: &Path) -> Result<Stack> {
        std::fs::create_dir_all(dir)?;
        let log = Arc::new(OperationLog::durable_with(
            &dir.join(LOG_FILE),
            FLUSH_POLICY,
        )?);
        let writer = Arc::new(LoggedWriter::new(
            Arc::new(RwLock::new(KnowledgeGraph::new())),
            Arc::clone(&log),
        ));
        let ckpt_dir = dir.join(CKPT_DIR);
        let fleet = ReplicaPool::start(fleet_config(), log, &ckpt_dir)?;
        let router = Arc::new(FleetRouter::new(Arc::clone(&fleet)));
        let server = SagaServer::start(
            Arc::clone(&router),
            Arc::clone(&writer),
            ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::default()
            },
        )?;
        let checkpoints = CheckpointWriter::new(&writer, ckpt_dir);
        Ok(Stack {
            dir: dir.to_path_buf(),
            writer,
            fleet,
            router,
            server,
            checkpoints,
        })
    }

    /// The server's address.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// A failover pool over the one server, default policy.
    pub fn pool(&self) -> SagaPool {
        SagaPool::new([self.addr()], PoolConfig::default())
    }

    /// A bare connection to the server.
    pub fn client(&self) -> Result<SagaClient> {
        SagaClient::connect(self.addr())
    }

    /// The log head.
    pub fn head(&self) -> Lsn {
        self.writer.log().head()
    }

    /// Block until **every** replica has replayed the log head.
    pub fn wait_caught_up(&self) -> Result<()> {
        let head = self.head();
        let controller = FleetController::new(Arc::clone(&self.fleet));
        let deadline = Instant::now() + Duration::from_secs(60);
        while controller
            .stats()
            .replicas
            .iter()
            .any(|r| r.watermark < head)
        {
            if Instant::now() >= deadline {
                return Err(SagaError::Unavailable(format!(
                    "fleet did not reach lsn {} within 60 s",
                    head.0
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok(())
    }

    /// Stop the server and the fleet, join their threads and close the
    /// log; what is left is the on-disk state a restart would find.
    pub fn shutdown(mut self) -> PathBuf {
        self.server.shutdown();
        self.fleet.shutdown();
        self.dir
    }
}
