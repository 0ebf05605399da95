//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage: `repro [FLAGS] [TARGET]...`. `repro --help` prints the full
//! flag and target reference; it is the only usage text, and a usage
//! error prints a one-line reason that points to it.
//!
//! `--faults` takes a fault-plan description (see `mps_faults::FaultPlan::
//! parse`): semicolon-separated clauses such as `seed=7; crash@0:0+30;
//! slow@1:0*1.5; fail=0.02`, or a preset (`light`, `moderate`, `heavy`).
//! Affected grid cells are reported as degraded or failed — with typed
//! errors — while the rest of the grid completes normally.
//!
//! `--disturb` injects *timed platform disturbances* into every testbed
//! run (see `mps_faults::DisturbancePlan::parse`): `crash@T:HOST`
//! permanently kills a host mid-execution, `slow@T1-T2:HOST:F` multiplies
//! its compute time by `F` inside the window, `degrade@T1-T2:HOST:F` does
//! the same to its network links; presets `light`/`moderate`/`heavy` are
//! seeded plans at intensity 0.25/0.5/1. `--recovery` picks the reaction
//! when a crash strands scheduled work: `failfast` (typed error),
//! `retry` (move stranded tasks to surviving hosts, keep the order), or
//! `rescue` (default — re-invoke the scheduler over the surviving
//! platform and adopt the repaired schedule, charging the re-planning
//! time to the makespan). The `disturb` target sweeps intensity 0..1 and
//! reports degradation, rescue success, and verdict stability.
//!
//! `--journal PATH` makes the grid campaign crash-safe: every completed
//! cell is appended durably to a write-ahead journal before the next one
//! is dispatched. A run killed at any point — crash, OOM, Ctrl-C — is
//! continued with `--resume`, recomputing only the missing cells; the
//! resumed grid is identical to an uninterrupted run. SIGINT/SIGTERM
//! trigger a graceful drain (in-flight cells finish, the journal syncs, a
//! partial summary prints), and `--max-wall-secs` converts an exhausted
//! wall-clock budget into the same clean checkpoint.
//!
//! `--isolation process` additionally runs every cell in a supervised
//! child worker process (the binary re-executes itself in a hidden
//! `--cell-worker` mode): a cell that panics, aborts, or hangs kills only
//! its worker. The worker is respawned with exponential backoff, the cell
//! retried, and after `--max-cell-attempts` strikes (default 2) the cell
//! is **quarantined** — journaled as a typed crash report that `--resume`
//! skips. `--cell-timeout-secs` (default 120) bounds each attempt's wall
//! clock. `--poison SPEC` (`needle=panic,needle=hang`, matched against
//! cell keys) deliberately poisons matching cells — test instrumentation
//! for the supervision machinery itself.
//!
//! The command line is read once into a [`Cli`] and checked once, before
//! any work starts. Its harness-shaping part is a [`Scenario`]: the
//! in-process harness, the `--cell-worker` argv of a process-isolated run
//! and the daemon's harness are all built from it.
//!
//! Exit codes: 0 on success (including a clean wall-clock checkpoint),
//! 2 on usage or runtime errors, 3 when the campaign completed but
//! quarantined at least one poison cell, 130 when interrupted.

use std::io::Write as _;
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

use mps_core::faults::{FaultPlan, RecoveryPolicy, DISTURB_HORIZON};
use mps_core::journal::{install_signal_handlers, CancelToken, RunControl};
use mps_core::sim::ExecPolicy;
use mps_core::supervise::SupervisorConfig;
use mps_exp::supervised::{serve_cells, SuperviseOpts, WorkerCommand};
use mps_exp::{
    ablation, figures, grid_health, parse_poison_spec, DisturbConfig, Executor, GridStatus,
    Harness, ServeBackend,
};

/// Exit code for a campaign that completed but quarantined poison cells:
/// the journal is whole (every cell has a durable record), yet some
/// records are crash reports rather than measurements.
const EXIT_QUARANTINED: i32 = 3;

/// Every target name `repro` accepts, space-separated.
const TARGETS: &str = "table1 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table2 gantt ablations \
                       faultsweep disturb grid all serve client campaign chaos online";

/// Where grid cells run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Isolation {
    /// On this process's worker threads.
    #[default]
    InProc,
    /// In supervised child worker processes (`--cell-worker`).
    Process,
}

impl Isolation {
    fn name(self) -> &'static str {
        match self {
            Isolation::InProc => "inproc",
            Isolation::Process => "process",
        }
    }
}

/// The harness-shaping part of the command line: everything a cell
/// worker needs to rebuild its parent's harness. Plans stay the user's
/// strings, so a worker parses exactly what the user typed.
#[derive(Debug, Clone, PartialEq)]
struct Scenario {
    seed: u64,
    repeats: u64,
    max_retries: u32,
    faults: Option<String>,
    disturb: Option<String>,
    /// `--recovery`, when given; the crash reaction defaults to rescue.
    recovery: Option<RecoveryPolicy>,
    poison: Option<String>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 2011,
            repeats: 3,
            max_retries: ExecPolicy::default().max_retries,
            faults: None,
            disturb: None,
            recovery: None,
            poison: None,
        }
    }
}

impl Scenario {
    fn recovery(&self) -> RecoveryPolicy {
        self.recovery.unwrap_or(RecoveryPolicy::Rescue)
    }

    /// Builds the harness. Every plan is parsed before the testbed is
    /// profiled, so a bad one costs nothing; `log` prints the banners.
    fn harness(&self, log: bool) -> Result<Harness, String> {
        if log {
            eprintln!(
                "# building harness (seed {}): profiling the emulated testbed…",
                self.seed
            );
        }
        let faults = match &self.faults {
            Some(desc) => {
                let plan = FaultPlan::parse(desc, 32, DISTURB_HORIZON)
                    .map_err(|e| format!("bad --faults plan: {e}"))?;
                if log {
                    eprintln!(
                        "# injecting fault plan (seed {}, {} event(s), max {} retries/task)",
                        plan.seed,
                        plan.events.len(),
                        self.max_retries
                    );
                }
                Some(plan)
            }
            None => None,
        };
        let poison = match &self.poison {
            Some(spec) => {
                Some(parse_poison_spec(spec).map_err(|e| format!("bad --poison spec: {e}"))?)
            }
            None => None,
        };
        let disturb = match &self.disturb {
            Some(desc) => {
                let cfg = DisturbConfig::parse(desc, self.recovery())
                    .map_err(|e| format!("bad --disturb plan: {e}"))?;
                if log {
                    eprintln!(
                        "# injecting disturbance plan (seed {}, {} event(s), recovery {})",
                        cfg.plan.seed,
                        cfg.plan.events.len(),
                        cfg.recovery
                    );
                }
                Some(cfg)
            }
            None => None,
        };
        let mut harness = Harness::new(self.seed).with_exec_policy(ExecPolicy {
            max_retries: self.max_retries,
            ..ExecPolicy::default()
        });
        if let Some(plan) = faults {
            harness = harness.with_fault_plan(plan);
        }
        if let Some(rules) = poison {
            harness = harness.with_poison(rules);
        }
        if let Some(cfg) = disturb {
            harness = harness.with_disturbance(cfg);
        }
        Ok(harness)
    }

    /// This binary re-executed as a supervised cell worker that rebuilds
    /// this scenario; [`Cli::parse`] reads the argv back. `tag` is an
    /// inert marker attributing the worker to its run in `ps` output.
    fn worker_command(&self, tag: &str) -> WorkerCommand {
        let program = std::env::current_exe()
            .unwrap_or_else(|e| die(&format!("cannot locate own binary: {e}")));
        let mut args = vec!["--cell-worker".to_string()];
        let mut push = |flag: &str, value: String| args.extend([flag.to_string(), value]);
        push("--seed", self.seed.to_string());
        push("--repeats", self.repeats.to_string());
        push("--max-retries", self.max_retries.to_string());
        for (flag, value) in [("--faults", &self.faults), ("--poison", &self.poison)] {
            if let Some(value) = value {
                push(flag, value.clone());
            }
        }
        // `--recovery` only shapes a worker's cells through a plan; alone
        // it would fail the worker's own check.
        if let Some(desc) = &self.disturb {
            push("--disturb", desc.clone());
            push("--recovery", self.recovery().to_string());
        }
        push("--worker-tag", tag.to_string());
        WorkerCommand { program, args }
    }
}

/// Every flag of the command line, parsed and checked once.
#[derive(Debug, Default)]
struct Cli {
    scenario: Scenario,
    /// Known target names, in order; `all` when none is given.
    targets: Vec<String>,
    help: bool,
    /// Hidden: serve cells over stdin/stdout for a supervisor.
    cell_worker: bool,
    json_dir: Option<String>,
    journal: Option<String>,
    resume: bool,
    max_wall_secs: Option<u64>,
    subset: Option<usize>,
    workers: Option<usize>,
    throttle_ms: Option<u64>,
    isolation: Isolation,
    cell_timeout_secs: Option<u64>,
    max_cell_attempts: Option<u32>,
    stderr_tail_bytes: Option<usize>,
    spawn_timeout_secs: Option<u64>,
    socket: Option<String>,
    state_dir: Option<String>,
    queue_cap: Option<usize>,
    serve_workers: Option<usize>,
    stdio: bool,
    schedule: Option<String>,
    simulate: Option<String>,
    subset_grid: Option<usize>,
    online: Option<String>,
    health: bool,
    drain: bool,
    deadline_ms: Option<u64>,
    campaign_dir: Option<String>,
    points: Option<usize>,
    episodes: Option<usize>,
    chaos_dir: Option<String>,
    arrival_rates: Option<String>,
    horizon_events: Option<u64>,
    admission: Option<usize>,
    max_width: Option<usize>,
    batch: Option<usize>,
    trace_out: Option<String>,
}

/// The value after `flag`, parsed and inside `range`; a missing,
/// unparseable or out-of-range value is the error "`flag` needs `want`".
fn value<T: FromStr + PartialOrd>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    want: &str,
    range: impl RangeBounds<T>,
) -> Result<T, String> {
    args.next()
        .and_then(|s| s.parse().ok())
        .filter(|v| range.contains(v))
        .ok_or_else(|| format!("{flag} needs {want}"))
}

impl Cli {
    /// Parses and checks the arguments (without the program name). `--help`
    /// ends parsing with only `help` set.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let s = &mut cli.scenario;
        let a = &mut args.into_iter();
        while let Some(flag) = a.next() {
            let f = flag.as_str();
            match f {
                "--seed" => s.seed = value(a, f, "an integer", ..)?,
                "--repeats" => s.repeats = value(a, f, "an integer", ..)?,
                "--max-retries" => s.max_retries = value(a, f, "an integer", ..)?,
                "--faults" => s.faults = Some(value(a, f, "a plan description", ..)?),
                "--disturb" => s.disturb = Some(value(a, f, "a plan description", ..)?),
                "--recovery" => {
                    let mode: String = value(a, f, "a mode (failfast|retry|rescue)", ..)?;
                    s.recovery = Some(
                        mode.parse()
                            .map_err(|_| "--recovery needs failfast, retry, or rescue")?,
                    );
                }
                "--poison" => s.poison = Some(value(a, f, "a spec (needle=panic|hang,...)", ..)?),
                "--json" => cli.json_dir = Some(value(a, f, "a directory", ..)?),
                "--journal" => cli.journal = Some(value(a, f, "a path", ..)?),
                "--resume" => cli.resume = true,
                "--max-wall-secs" => cli.max_wall_secs = Some(value(a, f, "an integer", ..)?),
                "--subset" => cli.subset = Some(value(a, f, "an integer", ..)?),
                "--workers" => cli.workers = Some(value(a, f, "an integer", ..)?),
                "--throttle-ms" => cli.throttle_ms = Some(value(a, f, "an integer", ..)?),
                "--isolation" => {
                    let mode: String = value(a, f, "a mode (inproc|process)", ..)?;
                    cli.isolation = match mode.as_str() {
                        "inproc" => Isolation::InProc,
                        "process" => Isolation::Process,
                        _ => return Err(format!("--isolation {mode:?} is not inproc|process")),
                    };
                }
                "--cell-timeout-secs" => {
                    cli.cell_timeout_secs = Some(value(a, f, "an integer >= 1", 1..)?)
                }
                "--max-cell-attempts" => {
                    cli.max_cell_attempts = Some(value(a, f, "an integer >= 1", 1..)?)
                }
                "--stderr-tail-bytes" => {
                    let want = "an integer in 0..=1048576";
                    cli.stderr_tail_bytes = Some(value(a, f, want, ..=1024 * 1024)?)
                }
                "--spawn-timeout-secs" => {
                    cli.spawn_timeout_secs = Some(value(a, f, "an integer in 1..=600", 1..=600)?)
                }
                "--socket" => cli.socket = Some(value(a, f, "a path", ..)?),
                "--state" => cli.state_dir = Some(value(a, f, "a directory", ..)?),
                "--queue-cap" => {
                    cli.queue_cap = Some(value(a, f, "an integer in 1..=4096", 1..=4096)?)
                }
                "--serve-workers" => {
                    cli.serve_workers = Some(value(a, f, "an integer in 1..=64", 1..=64)?)
                }
                "--stdio" => cli.stdio = true,
                "--schedule" => cli.schedule = Some(value(a, f, "DAG:VARIANT:ALGO", ..)?),
                "--simulate" => cli.simulate = Some(value(a, f, "DAG:VARIANT:ALGO", ..)?),
                "--subset-grid" => cli.subset_grid = Some(value(a, f, "an integer >= 1", 1..)?),
                "--online" => cli.online = Some(value(a, f, "ALGO:ARRIVAL", ..)?),
                "--health" => cli.health = true,
                "--drain" => cli.drain = true,
                "--deadline-ms" => cli.deadline_ms = Some(value(a, f, "an integer", ..)?),
                "--campaign-dir" => cli.campaign_dir = Some(value(a, f, "a directory", ..)?),
                "--points" => cli.points = Some(value(a, f, "an integer >= 1", 1..)?),
                "--episodes" => cli.episodes = Some(value(a, f, "an integer >= 1", 1..)?),
                "--chaos-dir" => cli.chaos_dir = Some(value(a, f, "a directory", ..)?),
                "--arrival-rate" => {
                    cli.arrival_rates = Some(value(a, f, "a comma-separated list", ..)?)
                }
                "--horizon-events" => {
                    cli.horizon_events = Some(value(a, f, "an integer >= 1", 1..)?)
                }
                "--admission" => {
                    let want = "an integer (0 sheds everything)";
                    cli.admission = Some(value(a, f, want, ..)?)
                }
                "--max-width" => cli.max_width = Some(value(a, f, "an integer >= 1", 1..)?),
                "--batch" => cli.batch = Some(value(a, f, "an integer >= 1", 1..)?),
                "--trace-out" => cli.trace_out = Some(value(a, f, "a path", ..)?),
                "--help" | "-h" => {
                    return Ok(Cli {
                        help: true,
                        ..Cli::default()
                    })
                }
                "--cell-worker" => cli.cell_worker = true,
                // Hidden: inert marker so tests can find worker processes by
                // scanning /proc/*/cmdline.
                "--worker-tag" => {
                    a.next();
                }
                t if TARGETS.split_whitespace().any(|k| k == t) => cli.targets.push(t.to_string()),
                t if t.starts_with('-') => return Err(format!("unknown flag `{t}`")),
                t => return Err(format!("unknown target `{t}`")),
            }
        }
        if cli.targets.is_empty() {
            cli.targets.push("all".to_string());
        }
        cli.check()?;
        Ok(cli)
    }

    fn has(&self, target: &str) -> bool {
        self.targets.iter().any(|t| t == target)
    }

    /// The flag-scope rules, one table evaluated in order: a row
    /// `(given, allowed, subject, wording)` fails when `given && !allowed`
    /// and reports "`subject` `wording`". A flag the chosen targets would
    /// ignore is refused, with one exemption: the targets that run before
    /// a block of rules (online before every later block, chaos and client
    /// before the journal and supervision blocks) are not checked by it:
    /// they accept that block's flags and ignore them.
    fn check(&self) -> Result<(), String> {
        let (online, chaos, campaign) =
            (self.has("online"), self.has("chaos"), self.has("campaign"));
        let (serve, client, sweep) = (self.has("serve"), self.has("client"), self.has("disturb"));
        let alone = self.targets.len() == 1;
        let process = self.isolation == Isolation::Process;
        let s = &self.scenario;
        let (faults, disturb, recovery) = (
            s.faults.is_some(),
            s.disturb.is_some(),
            s.recovery.is_some(),
        );
        let (journal, resume, json) =
            (self.journal.is_some(), self.resume, self.json_dir.is_some());
        let (wall, throttle) = (self.max_wall_secs.is_some(), self.throttle_ms.is_some());
        let stream = online || (client && self.online.is_some());
        let daemon = serve || client;
        let journaled = journal || self.cell_worker || serve || campaign;
        let supervised = process || self.cell_worker;

        let combined = "cannot be combined with other targets";
        let no_online = "cannot be used with the online target";
        let no_chaos = "cannot be used with the chaos target";
        let no_campaign = "cannot be used with the campaign target";
        let needs_online = "requires the online target";
        let needs_stream = "requires the online target or a client --online request";
        let needs_chaos = "requires the chaos target";
        let needs_campaign = "requires the campaign target";
        let needs_daemon = "requires the serve or client target";
        let needs_journal = "requires --journal PATH";
        let needs_process = "requires --isolation process";
        let own_plans = "cannot be used with the disturb target (it sweeps its own seeded plans)";
        let needs_state = "requires --state DIR (the supervisor owns journals)";
        let implicit = "is implicit for serve (journals under --state resume themselves)";
        #[rustfmt::skip]
        let rules: &[(bool, bool, &str, &str)] = &[
            (online, alone, "online", combined),
            (faults, !online, "--faults", no_online),
            (disturb, !online, "--disturb", no_online),
            (recovery, !online, "--recovery", no_online),
            (journal, !online, "--journal", no_online),
            (resume, !online, "--resume", no_online),
            (self.subset.is_some(), !online, "--subset", no_online),
            (process, !online, "--isolation process", no_online),
            (wall, !online, "--max-wall-secs", no_online),
            (throttle, !online, "--throttle-ms", no_online),
            (self.arrival_rates.is_some(), online, "--arrival-rate", needs_online),
            (self.max_width.is_some(), online, "--max-width", needs_online),
            (self.batch.is_some(), online, "--batch", needs_online),
            (self.trace_out.is_some(), online, "--trace-out", needs_online),
            (self.horizon_events.is_some(), stream, "--horizon-events", needs_stream),
            (self.admission.is_some(), stream, "--admission", needs_stream),
            (disturb, !sweep, "--disturb", own_plans),
            (recovery, disturb || sweep, "--recovery", "requires --disturb or the disturb target"),
            (serve, !client, "serve and client", "are mutually exclusive targets"),
            (chaos, alone, "chaos", combined),
            (faults, !chaos, "--faults", no_chaos),
            (disturb, !chaos, "--disturb", no_chaos),
            (recovery, !chaos, "--recovery", no_chaos),
            (journal, !chaos, "--journal", no_chaos),
            (resume, !chaos, "--resume", no_chaos),
            (json, !chaos, "--json", no_chaos),
            (self.subset.is_some(), !chaos, "--subset", no_chaos),
            (self.workers.is_some(), !chaos, "--workers", no_chaos),
            (process, !chaos, "--isolation process", no_chaos),
            (wall, !chaos, "--max-wall-secs", no_chaos),
            (throttle, !chaos, "--throttle-ms", no_chaos),
            (self.episodes.is_some(), chaos, "--episodes", needs_chaos),
            (self.chaos_dir.is_some(), chaos, "--chaos-dir", needs_chaos),
            (campaign, alone, "campaign", combined),
            (campaign, self.campaign_dir.is_some(), "campaign", "needs --campaign-dir DIR"),
            (faults, !campaign, "--faults", no_campaign),
            (journal, !campaign, "--journal", no_campaign),
            (resume, !campaign, "--resume", no_campaign),
            (json, !campaign, "--json", no_campaign),
            (process, !campaign, "--isolation process", no_campaign),
            (self.campaign_dir.is_some(), campaign, "--campaign-dir", needs_campaign),
            (self.points.is_some(), campaign, "--points", needs_campaign),
            (serve || client, alone, "serve/client", combined),
            (serve, self.socket.is_some() || self.stdio, "serve", "needs --socket PATH (or --stdio)"),
            (serve && process, self.state_dir.is_some(), "serve --isolation process", needs_state),
            (resume, !serve, "--resume", implicit),
            (client, self.socket.is_some(), "client", "needs --socket PATH"),
            (self.socket.is_some(), daemon, "--socket", needs_daemon),
            (self.state_dir.is_some(), daemon, "--state", needs_daemon),
            (self.queue_cap.is_some(), daemon, "--queue-cap", needs_daemon),
            (self.serve_workers.is_some(), daemon, "--serve-workers", needs_daemon),
            (self.stdio, daemon, "--stdio", needs_daemon),
            (self.schedule.is_some(), daemon, "--schedule", needs_daemon),
            (self.simulate.is_some(), daemon, "--simulate", needs_daemon),
            (self.subset_grid.is_some(), daemon, "--subset-grid", needs_daemon),
            (self.online.is_some(), daemon, "--online", needs_daemon),
            (self.health, daemon, "--health", needs_daemon),
            (self.drain, daemon, "--drain", needs_daemon),
            (self.deadline_ms.is_some(), daemon, "--deadline-ms", needs_daemon),
            (resume, journaled, "--resume", needs_journal),
            (wall, journaled, "--max-wall-secs", needs_journal),
            (throttle, journaled, "--throttle-ms", needs_journal),
            (process, journaled, "--isolation process", needs_journal),
            (self.cell_timeout_secs.is_some(), supervised, "--cell-timeout-secs", needs_process),
            (self.max_cell_attempts.is_some(), supervised, "--max-cell-attempts", needs_process),
            (self.stderr_tail_bytes.is_some(), supervised, "--stderr-tail-bytes", needs_process),
            (self.spawn_timeout_secs.is_some(), supervised, "--spawn-timeout-secs", needs_process),
        ];
        match rules.iter().find(|(given, allowed, ..)| *given && !allowed) {
            Some((_, _, subject, wording)) => Err(format!("{subject} {wording}")),
            None => Ok(()),
        }
    }
}

/// A journaled run's stop conditions: SIGINT/SIGTERM become a graceful
/// drain, `--max-wall-secs` a clean checkpoint, `--throttle-ms` a pause
/// after every cell.
fn run_control(cli: &Cli) -> RunControl {
    install_signal_handlers();
    let mut ctrl = RunControl::unlimited().with_cancel(CancelToken::following_signals());
    if let Some(secs) = cli.max_wall_secs {
        ctrl = ctrl.with_deadline_in(Duration::from_secs(secs));
    }
    if let Some(ms) = cli.throttle_ms {
        ctrl = ctrl.with_throttle(Duration::from_millis(ms));
    }
    ctrl
}

/// The supervision knobs of a process-isolated run; `--workers`
/// overrides `default_workers`.
fn supervise_opts(cli: &Cli, default_workers: usize) -> SuperviseOpts {
    let d = SuperviseOpts::default();
    SuperviseOpts {
        workers: cli.workers.unwrap_or(default_workers),
        cell_timeout: cli
            .cell_timeout_secs
            .map_or(d.cell_timeout, Duration::from_secs),
        spawn_timeout: cli
            .spawn_timeout_secs
            .map_or(d.spawn_timeout, Duration::from_secs),
        stderr_tail_bytes: cli.stderr_tail_bytes.unwrap_or(d.stderr_tail_bytes),
        config: SupervisorConfig {
            max_cell_attempts: cli.max_cell_attempts.unwrap_or(d.config.max_cell_attempts),
            ..d.config
        },
    }
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    if cli.help {
        print!("{}", help_text());
        std::process::exit(0);
    }
    if cli.has("online") {
        std::process::exit(run_online(&cli));
    }
    if cli.has("chaos") {
        std::process::exit(run_chaos(&cli));
    }
    if cli.has("client") {
        std::process::exit(run_client(&cli));
    }
    let (seed, repeats) = (cli.scenario.seed, cli.scenario.repeats);
    let mut harness = cli
        .scenario
        .harness(!cli.cell_worker)
        .unwrap_or_else(|e| die(&e));
    if cli.cell_worker {
        // Supervised worker mode: serve cells over stdin/stdout until the
        // supervisor closes the pipe. No catch_unwind — a poisoned cell
        // kills this process and that death is the crash report.
        std::process::exit(serve_cells(&harness));
    }
    if cli.has("serve") {
        std::process::exit(run_serve(&cli, harness));
    }
    if cli.has("campaign") {
        std::process::exit(run_campaign(&cli, &mut harness));
    }
    let needs_grid = ["all", "fig1", "fig5", "fig7", "fig8", "grid"]
        .iter()
        .any(|t| cli.has(t));
    let mut grid_status = GridStatus::Complete;
    let cells = if needs_grid {
        let scope = match cli.subset {
            Some(take) => format!("{take}-DAG subset"),
            None => "54-DAG".to_string(),
        };
        eprintln!("# running the {scope} × 3-simulator × 2-algorithm grid ({repeats} testbed runs per cell)…");
        let cells = match &cli.journal {
            Some(jpath) => {
                let ctrl = run_control(&cli);
                let path = Path::new(jpath);
                let (command, opts);
                let executor = match cli.isolation {
                    // Cells run in supervised child workers; poison cells
                    // are quarantined.
                    Isolation::Process => {
                        command = cli.scenario.worker_command(jpath);
                        opts = supervise_opts(&cli, Harness::default_workers());
                        Executor::Process(&command, &opts)
                    }
                    Isolation::InProc => Executor::InProc {
                        workers: cli.workers.unwrap_or_else(Harness::default_workers),
                    },
                };
                let report = harness
                    .run_grid_campaign(cli.subset, path, repeats, cli.resume, executor, &ctrl)
                    .unwrap_or_else(|e| die(&e.to_string()));
                if report.salvage_dropped_bytes > 0 {
                    eprintln!(
                        "# journal recovery: dropped a torn tail of {} byte(s)",
                        report.salvage_dropped_bytes
                    );
                }
                eprintln!(
                    "# journal {}: {} cell(s) resumed, {} computed, {} pending, {} quarantined — {}",
                    jpath,
                    report.resumed,
                    report.computed,
                    report.pending,
                    report.quarantined,
                    report.status.label()
                );
                grid_status = report.status;
                report.cells
            }
            None => match cli.subset {
                Some(take) => harness.run_subset(take, repeats),
                None => harness.run_grid(repeats),
            },
        };
        let health = grid_health(&cells);
        if cli.scenario.disturb.is_some() || health.disturbed > 0 {
            eprintln!(
                "# disturbances: {} disturbed cell(s), {} crash(es), {} rescue(s), {} task(s) rescued",
                health.disturbed, health.crashes, health.rescues, health.rescued_tasks
            );
        }
        if health.degraded + health.failed + health.quarantined > 0 || cli.scenario.faults.is_some()
        {
            eprintln!(
                "# grid health: {} full, {} degraded ({} retries, {} lost runs), {} failed, {} quarantined cells",
                health.full,
                health.degraded,
                health.retries,
                health.lost_runs,
                health.failed,
                health.quarantined
            );
            for c in cells.iter().filter(|c| !c.succeeded()) {
                if let mps_exp::CellOutcome::Failed { error } = &c.outcome {
                    eprintln!(
                        "#   failed: {}/{}/{}: {error}",
                        c.dag,
                        c.variant.name(),
                        c.algo
                    );
                } else if let Some(report) = c.outcome.crash_report() {
                    eprintln!(
                        "#   {}: {}/{}/{}: {}",
                        c.outcome.label(),
                        c.dag,
                        c.variant.name(),
                        c.algo,
                        report.summary()
                    );
                }
            }
        }
        cells
    } else {
        Vec::new()
    };

    if let Some(dir) = &cli.json_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("cannot create --json dir {dir}: {e}")));
        let path = format!("{dir}/grid.json");
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        serde_json::to_writer_pretty(&mut f, &cells)
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        f.flush()
            .unwrap_or_else(|e| die(&format!("cannot flush {path}: {e}")));
        eprintln!("# wrote {path}");
        // CSV companion for spreadsheet/R users.
        let csv_path = format!("{dir}/grid.csv");
        let mut csv =
            String::from("dag,n,variant,algo,sim_makespan,real_makespan,error_pct,outcome\n");
        for c in &cells {
            csv.push_str(&format!(
                "{},{},{},{},{:.6},{:.6},{:.3},{}\n",
                c.dag,
                c.n,
                c.variant.name(),
                c.algo,
                c.sim_makespan,
                c.real_makespan,
                c.error_pct(),
                c.outcome.label()
            ));
        }
        std::fs::write(&csv_path, csv)
            .unwrap_or_else(|e| die(&format!("cannot write {csv_path}: {e}")));
        eprintln!("# wrote {csv_path}");
    }

    if grid_status != GridStatus::Complete {
        // Partial campaign: print the checkpoint summary instead of
        // rendering figures from an incomplete grid. An interrupt exits
        // 130 (like an uncaught SIGINT); a spent wall-clock budget is a
        // *successful* checkpoint and exits 0.
        println!(
            "{}",
            grid_report(&cells, grid_status, cli.journal.as_deref())
        );
        let code = match grid_status {
            GridStatus::Interrupted => 130,
            _ => 0,
        };
        std::process::exit(code);
    }

    for t in &cli.targets {
        let report = match t.as_str() {
            "table1" => figures::table1(),
            "fig1" => [figures::fig1(&cells), figures::fig1_n3000(&cells)].join("\n"),
            "fig2" => figures::fig2(&harness.testbed),
            "fig3" => figures::fig3(&harness.testbed),
            "fig4" => figures::fig4(&harness.testbed),
            "fig5" => figures::fig5(&cells),
            "fig6" => figures::fig6(&harness.testbed),
            "fig7" => figures::fig7(&cells),
            "fig8" => figures::fig8(&cells),
            "table2" => figures::table2(&harness),
            "grid" => grid_report(&cells, grid_status, cli.journal.as_deref()),
            "gantt" => gantt_report(&harness),
            "faultsweep" => figures::fault_sweep(
                &mut harness,
                &[0.0, 0.25, 0.5, 1.0],
                &[11, 12, 13],
                10,
                repeats,
            ),
            "disturb" => {
                let opts = mps_exp::DisturbSweepOpts {
                    subset: cli.subset.unwrap_or(6),
                    repeats,
                    recovery: cli.scenario.recovery(),
                    workers: cli.workers.unwrap_or_else(Harness::default_workers),
                    ..mps_exp::DisturbSweepOpts::default()
                };
                eprintln!(
                    "# disturbance sweep: {} intensity point(s), {} DAG(s)/point, recovery {}",
                    opts.intensities.len(),
                    opts.subset,
                    opts.recovery
                );
                let report = mps_exp::run_disturb_sweep(&mut harness, seed, &opts, |line| {
                    eprintln!("# {line}")
                });
                if let Some(dir) = &cli.json_dir {
                    let path = format!("{dir}/disturb.json");
                    let payload = serde_json::to_string_pretty(&report)
                        .unwrap_or_else(|e| die(&format!("cannot encode {path}: {e}")));
                    std::fs::write(&path, payload)
                        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                    eprintln!("# wrote {path}");
                }
                report.render()
            }
            "ablations" => [
                ablation::root_cause_ablation(seed, 12, repeats),
                ablation::machine_robustness(&[0, 1, 2, 3, 4], 10, repeats),
                ablation::wiggle_sensitivity(&[0.0, 0.06, 0.12, 0.24], 10, repeats),
                ablation::algorithm_quality(seed, 12),
            ]
            .join("\n"),
            "all" => [
                figures::table1(),
                figures::fig1(&cells),
                figures::fig1_n3000(&cells),
                figures::fig2(&harness.testbed),
                figures::fig3(&harness.testbed),
                figures::fig4(&harness.testbed),
                figures::fig5(&cells),
                figures::fig6(&harness.testbed),
                figures::fig7(&cells),
                figures::fig8(&cells),
                figures::table2(&harness),
            ]
            .join("\n"),
            other => unreachable!("target `{other}` exits before the report loop"),
        };
        println!("{report}");
        println!("{}", "=".repeat(78));
    }

    let quarantined = cells
        .iter()
        .filter(|c| c.outcome.crash_report().is_some())
        .count();
    if quarantined > 0 {
        // The campaign *completed* — every cell has a durable journal
        // record — but some records are crash reports. Distinguishable
        // from both success (0) and usage errors (2) for CI assertions.
        eprintln!("# {quarantined} cell(s) quarantined — exiting {EXIT_QUARANTINED}");
        std::process::exit(EXIT_QUARANTINED);
    }
}

/// Campaign summary for the `grid` target and for partial checkpoints.
fn grid_report(cells: &[mps_exp::CellResult], status: GridStatus, journal: Option<&str>) -> String {
    use std::fmt::Write as _;
    let health = grid_health(cells);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Grid campaign — {} cell(s) durable, status: {}",
        cells.len(),
        status.label()
    );
    let _ = writeln!(
        out,
        "health: {} full, {} disturbed, {} degraded ({} retries, {} lost runs), {} failed, {} quarantined",
        health.full,
        health.disturbed,
        health.degraded,
        health.retries,
        health.lost_runs,
        health.failed,
        health.quarantined
    );
    for c in cells {
        if let Some(report) = c.outcome.crash_report() {
            let _ = writeln!(
                out,
                "  {}: {}/{}/{} — {}",
                c.outcome.label(),
                c.dag,
                c.variant.name(),
                c.algo,
                report.summary()
            );
        }
    }
    let errs: Vec<f64> = cells
        .iter()
        .filter_map(mps_exp::CellResult::error_pct_checked)
        .collect();
    if let Some(med) = mps_core::stats::median(&errs) {
        let _ = writeln!(
            out,
            "median simulation error over {} measured cell(s): {med:.2}%",
            errs.len()
        );
    }
    if let Some(j) = journal {
        match status {
            GridStatus::Complete => {
                let _ = writeln!(out, "journal {j} is complete");
            }
            _ => {
                let _ = writeln!(
                    out,
                    "checkpoint saved — continue with: repro --journal {j} --resume"
                );
            }
        }
    }
    out
}

/// Renders one DAG's execution timeline under each simulator's schedule.
fn gantt_report(harness: &Harness) -> String {
    use mps_exp::SimVariant;
    let corpus = harness.corpus();
    let g = corpus
        .iter()
        .find(|g| g.params.matrix_size == 2000)
        .expect("corpus has n = 2000 DAGs");
    let mut out = format!("Gantt charts for {} on the emulated testbed\n\n", g.name());
    for variant in SimVariant::ALL {
        let cluster = harness.nominal_cluster();
        let schedule = match variant {
            SimVariant::Analytic => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &mps_core::model::AnalyticModel::paper_jvm(),
            ),
            SimVariant::Profile => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &harness.profile_model,
            ),
            SimVariant::Empirical => mps_core::sched::Scheduler::schedule(
                &mps_core::sched::Hcpa,
                &g.dag,
                cluster,
                &harness.empirical_model,
            ),
        };
        out.push_str(&format!(
            "--- HCPA schedule under the {} model ---\n",
            variant.name()
        ));
        match harness.testbed.execute(&g.dag, &schedule, 0) {
            Ok(real) => out.push_str(&mps_core::sim::render_gantt(&schedule, &real, 70)),
            Err(e) => out.push_str(&format!("(testbed execution failed: {e})\n")),
        }
        out.push('\n');
    }
    out
}
/// The `campaign` target: a fault-sweep campaign of `--points` grid
/// points under `--campaign-dir`, one write-ahead journal per point.
/// Resume is re-invocation with the same arguments — complete points load
/// back without recomputing a cell. Exit codes mirror the journaled grid:
/// 0 for a complete campaign *or* a clean wall-clock checkpoint, 130 for
/// an interrupt, [`EXIT_QUARANTINED`] when complete with crash-family
/// cells in some journal.
fn run_campaign(cli: &Cli, harness: &mut Harness) -> i32 {
    let ctrl = run_control(cli);
    let opts = mps_exp::CampaignOpts {
        dir: PathBuf::from(
            cli.campaign_dir
                .as_deref()
                .expect("checked: --campaign-dir"),
        ),
        points: cli.points.unwrap_or(mps_exp::campaign::DEFAULT_POINTS),
        repeats: cli.scenario.repeats,
        workers: cli.workers.unwrap_or_else(Harness::default_workers),
        subset: cli.subset,
    };
    let cells_per_point = opts.subset.unwrap_or(54) * 6;
    eprintln!(
        "# campaign {}: {} point(s) x {} cell(s), fault intensity 0..1",
        opts.dir.display(),
        opts.points,
        cells_per_point,
    );
    let t = std::time::Instant::now();
    let report = harness
        .run_campaign(&opts, &ctrl, |p, status| {
            eprintln!(
                "# point {:04}: {} resumed, {} computed, {} quarantined — {}",
                p.point,
                p.resumed,
                p.computed,
                p.quarantined,
                status.label()
            );
        })
        .unwrap_or_else(|e| die(&format!("campaign: {e}")));
    println!(
        "campaign {}: {}/{} point(s) done, {} cell(s) durable ({} resumed, {} computed, {} quarantined) in {:.1} s — {}",
        opts.dir.display(),
        report.points_done,
        report.points_total,
        report.cells,
        report.resumed,
        report.computed,
        report.quarantined,
        t.elapsed().as_secs_f64(),
        report.status.label(),
    );
    match report.status {
        GridStatus::Interrupted => 130,
        GridStatus::DeadlineExpired => {
            eprintln!("# checkpoint saved — continue by re-running the same campaign invocation");
            0
        }
        GridStatus::Complete if report.quarantined > 0 => EXIT_QUARANTINED,
        GridStatus::Complete => 0,
    }
}

fn run_chaos(cli: &Cli) -> i32 {
    let opts = mps_exp::ChaosOpts {
        episodes: cli.episodes.unwrap_or(50),
        seed: cli.scenario.seed,
        dir: cli
            .chaos_dir
            .as_ref()
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("mps-chaos-{}", std::process::id()))
            }),
    };
    eprintln!(
        "# chaos soak: {} episode(s), seed {}, scratch {}",
        opts.episodes,
        opts.seed,
        opts.dir.display()
    );
    let t = std::time::Instant::now();
    let report = mps_exp::chaos::run_chaos(&opts, |line| eprintln!("# {line}"))
        .unwrap_or_else(|e| die(&format!("chaos: {e}")));
    println!(
        "chaos soak (seed {}): {} episode(s), {} typed failure(s) in {:.1} s",
        opts.seed,
        report.episodes,
        report.failed_typed,
        t.elapsed().as_secs_f64()
    );
    println!(
        "  io faults injected  : {} (enospc {}, eio {}, short-write {}, fsync {}, torn-rename {})",
        report.io.total(),
        report.io.enospc,
        report.io.eio,
        report.io.short_write,
        report.io.fsync_fail,
        report.io.torn_rename
    );
    println!(
        "  wire faults injected: {} (corrupt {}, stall {}, close {})",
        report.wire.total(),
        report.wire.corrupt,
        report.wire.stall,
        report.wire.close
    );
    println!(
        "  disturbances fired  : {} (crash {}, slow {}, degrade {}; {} rescue(s), {} task(s) rescued)",
        report.disturb.fired(),
        report.disturb.crashes,
        report.disturb.slows,
        report.disturb.degrades,
        report.disturb.rescues,
        report.disturb.rescued_tasks
    );
    if report.passed() {
        println!("  verdict: PASS — every fault absorbed or typed, every class exercised");
        0
    } else {
        println!(
            "  verdict: FAIL — {} invariant violation(s):",
            report.violations.len()
        );
        for v in &report.violations {
            println!("    - {v}");
        }
        2
    }
}

/// The `online` target: a streaming-workload sweep across load levels.
/// `--trace-out` writes the deterministic event/SLO trace (byte-identical
/// across repeats, batch sizes, and worker counts); `--json` additionally
/// dumps the full report as `online.json`.
fn run_online(cli: &Cli) -> i32 {
    let defaults = mps_exp::OnlineOpts::default();
    let opts = mps_exp::OnlineOpts {
        arrivals: match &cli.arrival_rates {
            Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
            None => defaults.arrivals,
        },
        horizon_events: cli.horizon_events.unwrap_or(defaults.horizon_events),
        seed: cli.scenario.seed,
        admission_cap: cli.admission.unwrap_or(defaults.admission_cap),
        max_width: cli.max_width.unwrap_or(defaults.max_width),
        batch: cli.batch.unwrap_or(defaults.batch),
        workers: cli.workers.unwrap_or_else(Harness::default_workers),
    };
    eprintln!(
        "# streaming sweep: {} load level(s) x {{HCPA, MCPA}}, {} events/run, seed {}, {} worker(s)",
        opts.arrivals.len(),
        opts.horizon_events,
        opts.seed,
        opts.workers
    );
    let t = std::time::Instant::now();
    let report = match mps_exp::run_online_sweep(&opts, |line| eprintln!("# {line}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro: online: {e}");
            return 2;
        }
    };
    eprintln!("# sweep finished in {:.1} s", t.elapsed().as_secs_f64());
    if let Some(path) = &cli.trace_out {
        if let Err(e) = std::fs::write(path, report.trace()) {
            eprintln!("repro: online: cannot write {path}: {e}");
            return 2;
        }
        eprintln!("# wrote {path}");
    }
    if let Some(dir) = &cli.json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("repro: online: cannot create --json dir {dir}: {e}");
            return 2;
        }
        let path = format!("{dir}/online.json");
        let payload = match serde_json::to_string_pretty(&report) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("repro: online: cannot encode {path}: {e}");
                return 2;
            }
        };
        if let Err(e) = std::fs::write(&path, payload) {
            eprintln!("repro: online: cannot write {path}: {e}");
            return 2;
        }
        eprintln!("# wrote {path}");
    }
    println!("{}", report.render());
    0
}

/// The `serve` target: run the scheduling daemon until it drains.
/// Exit codes: 0 clean drain, 3 drained with quarantined cells,
/// 130 aborted drain (second signal), 2 startup error.
fn run_serve(cli: &Cli, harness: Harness) -> i32 {
    let ctrl = run_control(cli);
    let mut backend = ServeBackend::new(harness);
    if let Some(dir) = &cli.state_dir {
        backend = backend.with_state_dir(PathBuf::from(dir));
    }
    if cli.isolation == Isolation::Process {
        backend = backend.with_worker(cli.scenario.worker_command("serve"), supervise_opts(cli, 2));
    }
    let queue = cli.queue_cap.unwrap_or(16);
    let cfg = mps_core::serve::ServerConfig {
        server: "mps-serve".to_string(),
        queue_capacity: queue,
        executors: cli.serve_workers.unwrap_or(2),
        ctrl,
        ..mps_core::serve::ServerConfig::default()
    };
    let server = mps_core::serve::Server::new(std::sync::Arc::new(backend), cfg);
    let isolation = cli.isolation.name();
    let result = if cli.stdio {
        eprintln!("# serving mps-proto/v1 on stdio ({isolation} isolation)");
        server.run_stdio()
    } else {
        #[cfg(unix)]
        {
            let path = cli.socket.as_deref().expect("checked: --socket or --stdio");
            eprintln!("# serving mps-proto/v1 on {path} ({isolation} isolation, queue {queue})");
            server.run_unix(Path::new(path))
        }
        #[cfg(not(unix))]
        {
            die("serve over a socket requires a Unix platform (use --stdio)")
        }
    };
    match result {
        Err(e) => {
            eprintln!("repro: serve: {e}");
            2
        }
        Ok(x) => {
            eprintln!(
                "# serve exit: {} served, {} shed, {} quarantined, {} recovered — {}",
                x.served,
                x.shed,
                x.quarantined,
                x.recovered,
                if x.interrupted {
                    "drain aborted"
                } else {
                    "drained clean"
                }
            );
            if x.interrupted {
                130
            } else if x.quarantined > 0 {
                EXIT_QUARANTINED
            } else {
                0
            }
        }
    }
}

/// Parses a `DAG:VARIANT:ALGO` request spec.
#[cfg(unix)]
fn parse_cell_spec(spec: &str) -> (usize, String, String) {
    let parts: Vec<&str> = spec.split(':').collect();
    let [dag, variant, algo] = parts[..] else {
        die(&format!("bad spec {spec:?} (want DAG:VARIANT:ALGO)"));
    };
    let dag = dag
        .parse()
        .unwrap_or_else(|_| die(&format!("bad DAG index in {spec:?}")));
    (dag, variant.to_string(), algo.to_string())
}

/// The `client` target: submit work to a running daemon, stream cells
/// to stdout as `<key>\t<payload>` lines. Exit codes: 0 done, 2
/// connect/protocol error, 4 request failed, 5 overloaded, 6 draining.
#[cfg(unix)]
fn run_client(cli: &Cli) -> i32 {
    use mps_core::serve::client::connect_unix;
    use mps_core::serve::{RequestOutcome, WorkRequest};

    let socket = Path::new(cli.socket.as_deref().expect("checked: client --socket"));
    let (mut client, _cap) = match connect_unix(socket, "repro-client", Duration::from_secs(10)) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("repro: client: {e}");
            return 2;
        }
    };
    let mut id = 0u64;
    let mut code = 0i32;

    if cli.health {
        id += 1;
        match client.health(id) {
            Ok(stats) => match serde_json::to_string_pretty(&stats) {
                Ok(j) => println!("{j}"),
                Err(e) => {
                    eprintln!("repro: client: encode stats: {e}");
                    code = 2;
                }
            },
            Err(e) => {
                eprintln!("repro: client: health: {e}");
                return 2;
            }
        }
    }

    let (repeats, disturb) = (cli.scenario.repeats, &cli.scenario.disturb);
    let mut work_items: Vec<WorkRequest> = Vec::new();
    if let Some(spec) = &cli.schedule {
        let (dag, variant, algo) = parse_cell_spec(spec);
        work_items.push(WorkRequest::Schedule { dag, variant, algo });
    }
    if let Some(spec) = &cli.simulate {
        let (dag, variant, algo) = parse_cell_spec(spec);
        work_items.push(WorkRequest::Simulate {
            dag,
            variant,
            algo,
            repeats,
            disturb: disturb.clone(),
        });
    }
    if let Some(take) = cli.subset_grid {
        work_items.push(WorkRequest::SubsetGrid {
            take,
            repeats,
            disturb: disturb.clone(),
        });
    }
    if let Some(spec) = &cli.online {
        let (algo, arrival) = spec
            .split_once(':')
            .unwrap_or_else(|| die("bad --online spec (want ALGO:ARRIVAL, e.g. HCPA:0.05)"));
        work_items.push(WorkRequest::Online {
            arrival: arrival.to_string(),
            horizon_events: cli.horizon_events.unwrap_or(1_000_000),
            seed: cli.scenario.seed,
            admission: cli.admission.unwrap_or(64) as u64,
            algo: algo.to_string(),
        });
    }
    for work in &work_items {
        id += 1;
        let outcome = client.request(id, work, cli.deadline_ms, &mut |key, payload| {
            println!("{key}\t{payload}");
        });
        match outcome {
            Ok(RequestOutcome::Done(summary)) => {
                eprintln!(
                    "# request {id}: {} cell(s) ({} resumed, {} computed, {} quarantined) — {}",
                    summary.cells,
                    summary.resumed,
                    summary.computed,
                    summary.quarantined,
                    summary.status
                );
            }
            Ok(RequestOutcome::Failed { error }) => {
                eprintln!("repro: client: request {id} failed: {error}");
                code = code.max(4);
            }
            Ok(RequestOutcome::Overloaded { retry_after_ms }) => {
                eprintln!("repro: client: overloaded — retry after {retry_after_ms} ms");
                code = code.max(5);
            }
            Ok(RequestOutcome::Draining) => {
                eprintln!("repro: client: server is draining");
                code = code.max(6);
            }
            Err(e) => {
                eprintln!("repro: client: {e}");
                return 2;
            }
        }
    }
    if cli.drain {
        id += 1;
        if let Err(e) = client.drain(id) {
            eprintln!("repro: client: drain: {e}");
            return 2;
        }
        eprintln!("# drain acknowledged");
    }
    code
}

#[cfg(not(unix))]
fn run_client(_: &Cli) -> i32 {
    die("the client target requires a Unix platform")
}

/// `--help` text, to stdout (exit 0): the one usage text, which every
/// usage error points to.
fn help_text() -> String {
    "repro — regenerate the paper's tables and figures, or run/query the
scheduling daemon.

usage: repro [FLAGS] [TARGET]...

targets:
  table1 fig1..fig8 table2 gantt ablations faultsweep grid all
  disturb  sweep platform-disturbance intensity 0..1: per point, a seeded
           plan of host crashes / slow windows / link degradations hits
           every testbed run; reports makespan degradation, rescue
           success rate, and HCPA-vs-MCPA verdict stability
  serve    run the mps-serve scheduling daemon (mps-proto/v1)
  client   submit work to a running daemon
  campaign fault-sweep campaign: many grid points, one journal each
  chaos    seeded I/O + wire fault-injection soak over every durability
           path (journal, campaign, daemon), with invariant checks
  online   streaming workload: a seeded arrival process (Poisson or
           bursty MMPP) feeds DAG jobs from the corpus through admission
           control into moldable HCPA/MCPA allocation on the incremental
           DES; reports throughput, utilization, P2-sketched latency
           quantiles, and verdict stability across load levels

grid flags:
  --seed S             harness seed (default 2011)
  --repeats R          testbed runs per cell (default 3)
  --json DIR           also write grid.json / grid.csv
  --faults PLAN        inject a fault plan (preset or clause list)
  --max-retries N      per-task retry budget under faults
  --disturb PLAN       inject a timed platform-disturbance plan into every
                       testbed run: `crash@T:HOST`, `slow@T1-T2:HOST:F`,
                       `degrade@T1-T2:HOST:F` clauses (`;`-separated, with
                       an optional `seed=S`), or a preset light|moderate|
                       heavy (a seeded plan at intensity .25/.5/1)
  --recovery MODE      reaction to a host crash stranding scheduled work:
                       failfast | retry | rescue (default; re-plans the
                       unfinished suffix on the surviving hosts)
  --subset N           only the first N corpus DAGs
  --workers N          worker threads / processes
  --journal PATH       crash-safe write-ahead journal for the grid
  --resume             continue an existing journal
  --max-wall-secs S    graceful checkpoint after S seconds
  --throttle-ms N      sleep N ms between cells (test kill windows)
  --isolation MODE     inproc (default) or process

supervision flags (require --isolation process):
  --cell-timeout-secs S    per-attempt wall budget, >= 1 (default 120)
  --max-cell-attempts N    strikes before quarantine, >= 1 (default 2)
  --spawn-timeout-secs S   worker spawn->handshake budget, 1..=600
                           (default 30)
  --stderr-tail-bytes N    worker stderr retained per crash report,
                           0..=1048576 (default 8192)
  --poison SPEC            poison matching cells (needle=panic|hang,...)

campaign flags (target: campaign):
  --campaign-dir DIR   campaign directory: point-NNNN.jl journals plus
                       a campaign.json progress manifest
  --points N           sweep points, fault intensity 0..1 (default 309:
                       309 x 324 cells crosses 100k on the full grid)
  (resume = re-invoke with the same arguments; complete points are
   no-ops, the first incomplete point resumes mid-grid. --subset,
   --repeats, --workers, --max-wall-secs, --throttle-ms apply.)

chaos flags (target: chaos):
  --episodes N         seeded episodes per soak (default 50); each cycles
                       journal/campaign/daemon under escalating fault
                       intensity, then targeted single-class episodes
  --chaos-dir DIR      scratch directory for episode journals (default:
                       a per-pid directory under the system temp dir)
  (--seed seeds the whole soak; a fixed seed reproduces the exact fault
   sequence. Exit 0 = every injected fault was absorbed or surfaced
   typed AND every fault class actually fired; exit 2 otherwise.)

online flags (target: online):
  --arrival-rate LIST  comma-separated load levels; each entry is a bare
                       Poisson rate (jobs/sim-second) or a full arrival
                       grammar string `poisson@R` / `mmpp@R0:R1:S0:S1`
                       (default 0.01,0.04,0.16: light, busy, overload)
  --horizon-events N   DES events per run before draining (default 1000000)
  --admission N        backlog+inflight cap; beyond it arrivals are shed
                       with EMA retry hints (default 64; 0 sheds all)
  --max-width N        widest host subset one job may claim (default 8)
  --batch N            steps between memory samples; flush granularity
                       only, the event trace is invariant to it
  --trace-out PATH     write the deterministic event/SLO trace (byte-
                       identical across repeats, batch sizes, --workers)
  (--seed seeds the arrival stream; --workers parallelizes across the
   level x algorithm run matrix; --json writes online.json)

serve flags (target: serve):
  --socket PATH        Unix socket to listen on
  --stdio              serve one connection over stdin/stdout instead
  --state DIR          journal every grid request under DIR: identical
                       resubmissions replay byte-identically, and a
                       restarted daemon finishes interrupted requests
  --queue-cap N        admission queue capacity, 1..=4096 (default 16)
  --serve-workers N    concurrent request executors, 1..=64 (default 2)
  --isolation process  run cells in supervised workers (needs --state);
                       poison requests are quarantined, not fatal
  --max-wall-secs S    drain and exit after S seconds

client flags (target: client):
  --socket PATH              daemon socket
  --schedule DAG:VAR:ALGO    one schedule (no testbed runs)
  --simulate DAG:VAR:ALGO    one full cell (--repeats testbed runs)
  --subset-grid N            first N DAGs x 3 variants x 2 algorithms
  --online ALGO:ARRIVAL      one streaming run (e.g. HCPA:0.05 or
                             MCPA:mmpp@8:0.5:10:40); --horizon-events
                             and --admission parameterize it, --seed
                             seeds the arrival stream; the daemon caps
                             the horizon at 20M events
  --deadline-ms N            per-request deadline
  --health                   print server statistics
  --drain                    ask the daemon to drain and exit
  (VAR: analytic|profile|empirical; ALGO: HCPA|MCPA; cells stream to
   stdout as <key><TAB><payload-json> lines)

exit codes:
  0 success / clean drain      2 usage or runtime error
  3 completed with quarantined cells
  4 client request failed      5 overloaded (retry hinted)
  6 server draining            130 interrupted
"
    .to_string()
}

/// A usage or runtime error: the reason on stderr, exit 2.
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("see `repro --help` for the flag and target reference");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_worker_argv_parses_back_to_the_same_scenario() {
        let scenario = Scenario {
            seed: 7,
            repeats: 1,
            max_retries: 5,
            faults: Some("seed=7; moderate; fail=0.1".to_string()),
            disturb: Some("seed=42;heavy".to_string()),
            recovery: Some(RecoveryPolicy::RetryElsewhere),
            poison: Some("s0/n2000/analytic/HCPA=panic".to_string()),
        };
        let default = Scenario::default();
        assert_ne!(scenario.seed, default.seed);
        assert_ne!(scenario.repeats, default.repeats);
        assert_ne!(scenario.max_retries, default.max_retries);
        let args = scenario.worker_command("tag").args;
        let cli = Cli::parse(args).expect("the worker argv parses");
        assert!(cli.cell_worker);
        assert_eq!(cli.scenario, scenario);
    }

    #[test]
    fn recovery_without_a_plan_stays_out_of_the_worker_argv() {
        // `--recovery retry disturb grid` is valid; the sweep alone uses
        // the policy, so workers get neither flag and still parse.
        let cli = parse(&["--recovery", "retry", "--journal", "j", "disturb", "grid"]).unwrap();
        let args = cli.scenario.worker_command("tag").args;
        assert!(!args.iter().any(|a| a == "--recovery" || a == "--disturb"));
        let worker = Cli::parse(args).expect("the worker argv parses");
        assert_eq!(worker.scenario.recovery, None);
        assert_eq!(worker.scenario.disturb, None);
    }

    #[test]
    fn defaults_unknown_arguments_and_help() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.targets, ["all"]);
        assert_eq!(cli.scenario, Scenario::default());
        assert_eq!(cli.isolation, Isolation::InProc);
        assert_eq!(parse(&["--resme"]).unwrap_err(), "unknown flag `--resme`");
        assert_eq!(parse(&["fgi1"]).unwrap_err(), "unknown target `fgi1`");
        assert!(parse(&["--help", "fgi1"]).unwrap().help);
    }

    #[test]
    fn values_are_checked_against_their_range() {
        let cli = parse(&["--queue-cap", "4096", "serve", "--socket", "s"]).unwrap();
        assert_eq!(cli.queue_cap, Some(4096));
        for bad in ["0", "4097", "x"] {
            assert_eq!(
                parse(&["--queue-cap", bad, "serve", "--socket", "s"]).unwrap_err(),
                "--queue-cap needs an integer in 1..=4096"
            );
        }
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs an integer");
        assert_eq!(
            parse(&["--isolation", "threads"]).unwrap_err(),
            "--isolation \"threads\" is not inproc|process"
        );
        assert_eq!(
            parse(&["--recovery", "never"]).unwrap_err(),
            "--recovery needs failfast, retry, or rescue"
        );
    }

    #[test]
    fn a_flag_the_target_would_ignore_is_refused() {
        for args in [
            &["--socket", "s", "online"][..],
            &["--cell-timeout-secs", "5", "chaos"],
            &["--resume", "client", "--socket", "s"],
            &["--socket", "s", "grid"],
            &["--cell-timeout-secs", "5", "--journal", "j", "grid"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(args[0]), "{args:?}: {err}");
        }
    }
}
