//! Set-up, identical in shape for every workload: generate the tables from
//! the seed, sign them with the constant 1024-bit owner key, create the
//! store (`update_mix`), start the in-process server, connect the clients
//! and send each one warm query. All of it is what `setup_s` times.

use crate::client::{Client, Ctx, RangeClient, Updater};
use crate::gen::{self, ReadStream, UpdateGen};
use crate::workload::{server_config, RunConfig, Workload, CLIENTS, OWNER_BITS, OWNER_SEED};
use adp_core::prelude::*;
use adp_relation::{KeyRange, SelectQuery, Table};
use adp_server::{RemoteSubscriber, RemoteVerifier, Server, ServerHandle, SqlSession};
use adp_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The owner. Key generation is a constant of the benchmark, not part of
/// any run's set-up, so it happens once per process outside every timer.
pub fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| Owner::new(OWNER_BITS, &mut StdRng::seed_from_u64(OWNER_SEED)))
}

/// Where run directories and span files go: `<target dir>/adpbench`, found
/// from the executable's own path so it follows `CARGO_TARGET_DIR`.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    exe.ancestors()
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("target"), Path::to_path_buf)
        .join("adpbench")
}

/// A fresh directory for one set-up's store(s).
fn fresh_run_dir() -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = scratch_root().join(format!(
        "run-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One served table as the benchmark itself knows it.
pub struct Served {
    pub id: u32,
    /// The generator's own copy, for row-for-row reference checks.
    pub reference: Table,
    /// The signed table as first served (direct-call replay reads it).
    pub signed: Arc<SignedTable>,
    pub cert: Certificate,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub sign_s: f64,
    pub rows_signed: u64,
}

pub struct Fixture {
    pub cfg: RunConfig,
    pub handle: ServerHandle,
    pub served: Vec<Served>,
    /// Removed by [`Fixture::teardown`].
    pub run_dir: PathBuf,
    /// `update_mix`: the served store's directory.
    pub store_dir: Option<PathBuf>,
    pub times: SetupTimes,
}

fn sign(table: Table, domain: Domain, id: u32, times: &mut SetupTimes) -> Served {
    let reference = table.clone();
    let rows = table.len() as u64;
    let start = Instant::now();
    let signed = owner()
        .sign_table(table, domain, SchemeConfig::default())
        .expect("generated keys lie in the domain");
    times.sign_s += start.elapsed().as_secs_f64();
    times.rows_signed += rows;
    let cert = owner().certificate(&signed);
    Served {
        id,
        reference,
        signed: Arc::new(signed),
        cert,
    }
}

/// Builds everything and returns it with the connected clients, the
/// workload's own senders first.
pub fn setup(cfg: RunConfig) -> Result<(Fixture, Vec<Client>), String> {
    owner();
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let run_dir = fresh_run_dir().map_err(|e| format!("run directory: {e}"))?;
    let (seed, sizes) = (cfg.seed, cfg.sizes);

    let served = match cfg.workload {
        Workload::SqlMix => vec![
            sign(
                gen::orders_table(seed, sizes),
                gen::sql_domain(sizes),
                0,
                &mut times,
            ),
            sign(
                gen::customers_table(seed, sizes),
                gen::sql_domain(sizes),
                1,
                &mut times,
            ),
        ],
        _ => vec![sign(
            gen::bench_table(seed, sizes),
            gen::bench_domain(sizes),
            0,
            &mut times,
        )],
    };

    let mut server = Server::new(server_config());
    let mut store_dir = None;
    if cfg.workload == Workload::UpdateMix {
        let dir = run_dir.join("store");
        let store = Store::create(&dir, (*served[0].signed).clone())
            .map_err(|e| format!("store create: {e}"))?;
        server.add_store(0, store);
        store_dir = Some(dir);
    } else {
        for s in &served {
            server.add_shared_table(s.id, Arc::clone(&s.signed));
        }
    }
    let handle = server
        .serve("127.0.0.1:0")
        .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();

    let connect_reader = |stream: ReadStream, check_reference: bool| -> Result<Client, String> {
        let mut verifier = RemoteVerifier::connect(addr, served[0].cert.clone(), 0)
            .map_err(|e| format!("connect: {e}"))?;
        verifier
            .select(&SelectQuery::range(KeyRange::closed(
                gen::KEY_GAP,
                2 * gen::KEY_GAP,
            )))
            .map_err(|e| format!("warm query: {e}"))?;
        Ok(Client::Range(RangeClient {
            verifier,
            stream,
            check_reference,
        }))
    };
    let mut clients = Vec::with_capacity(CLIENTS);
    match cfg.workload {
        Workload::RangeHot | Workload::RangeCold => {
            let stream = if cfg.workload == Workload::RangeHot {
                ReadStream::Hot
            } else {
                ReadStream::Cold
            };
            for _ in 0..CLIENTS {
                clients.push(connect_reader(stream, true)?);
            }
        }
        Workload::SqlMix => {
            for _ in 0..CLIENTS {
                let mut s = SqlSession::connect(addr).map_err(|e| format!("connect: {e}"))?;
                for t in &served {
                    s.add_table(t.id, t.cert.clone(), t.reference.len() as u64);
                }
                if !s.declare_fk("orders", "customers") {
                    return Err("orders is not registered".into());
                }
                s.query_sql("SELECT * FROM customers WHERE id BETWEEN 1 AND 2")
                    .map_err(|e| format!("warm query: {e}"))?;
                clients.push(Client::Sql(s));
            }
        }
        Workload::UpdateMix => {
            let sub =
                RemoteSubscriber::subscribe(addr, served[0].cert.clone(), 0, 1, KeyRange::all())
                    .map_err(|e| format!("subscribe: {e}"))?;
            clients.push(Client::Updater(Box::new(Updater::new(
                (*served[0].signed).clone(),
                sub,
                UpdateGen::new(seed, sizes),
            ))));
            clients.push(connect_reader(ReadStream::Hot, false)?);
        }
    }
    times.total_s = start.elapsed().as_secs_f64();
    Ok((
        Fixture {
            cfg,
            handle,
            served,
            run_dir,
            store_dir,
            times,
        },
        clients,
    ))
}

impl Fixture {
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx {
            seed: self.cfg.seed,
            sizes: self.cfg.sizes,
            handle: &self.handle,
            served: &self.served,
        }
    }

    /// Stops the server, joining its threads and releasing its store, and
    /// returns the run directory for the caller to inspect and remove.
    /// Clients must already be dropped.
    pub fn stop(self) -> PathBuf {
        self.handle.shutdown();
        self.run_dir
    }

    /// [`Fixture::stop`], then removes the run directory.
    pub fn teardown(self) -> Result<(), String> {
        let dir = self.stop();
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove run directory: {e}"))
    }
}
