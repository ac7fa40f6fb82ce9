//! The wire run: start the `e2nvm-server` binary, load it, drive the
//! timed phase from one thread over two pipelined connections, and
//! read the simulated device counters back over the protocol.

use crate::check::Checker;
use crate::json::{self, Value};
use crate::stats::Histogram;
use crate::workload::{half_range, Op, Stream, Workload, CONNS, DEPTH, FLUSH_POLICY};
use e2nvm_server::frame::{is_continuation, FrameDecoder, MAX_RESPONSE_BODY};
use e2nvm_server::Client;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, String>;

/// Build the server binary from the checkout's workspace and return
/// its path. Cargo leaves an up-to-date build alone.
pub fn build_server() -> Result<PathBuf> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "e2nvm-server",
            "--bin",
            "e2nvm-server",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building e2nvm-server failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let exe = target.join("release").join("e2nvm-server");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!("no server binary at {}", exe.display()))
    }
}

/// A running server process. Dropping it kills the process if it is
/// still running, so a failed run leaves nothing behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open: closing it early would hand the server EPIPE on its
    /// shutdown messages.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start a fresh server over `data_dir` and wait until it listens.
    pub fn spawn(exe: &Path, wl: &Workload, data_dir: &Path) -> Result<Server> {
        let g = wl.geometry;
        let mut child = Command::new(exe)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--shards")
            .arg(g.shards.to_string())
            .arg("--segments")
            .arg(g.segments.to_string())
            .arg("--seg-bytes")
            .arg(g.seg_bytes.to_string())
            .arg("--flush-policy")
            .arg(FLUSH_POLICY)
            .arg("--data-dir")
            .arg(data_dir)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start (banner {banner:?})"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send SHUTDOWN and wait for the process to exit.
    pub fn shutdown(mut self) -> Result<()> {
        let sent = Client::connect(self.addr).and_then(|mut c| c.shutdown_server());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after SHUTDOWN".to_string());
                }
            }
        }
        sent.map_err(|e| format!("SHUTDOWN: {e}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// The device counters the STATS frame reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Device {
    pub bits_flipped: f64,
    pub energy_pj: f64,
    pub latency_ns: f64,
}

impl Device {
    pub fn fetch(addr: SocketAddr) -> Result<Device> {
        let text = Client::connect(addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("STATS: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("STATS is not JSON ({e}): {text}"))?;
        let field = |name: &str| {
            doc.get("device")
                .and_then(|d| d.get(name))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("STATS lacks device.{name}: {text}"))
        };
        Ok(Device {
            bits_flipped: field("bits_flipped")?,
            energy_pj: field("energy_pj")?,
            latency_ns: field("latency_ns")?,
        })
    }

    pub fn minus(self, before: Device) -> Device {
        Device {
            bits_flipped: self.bits_flipped - before.bits_flipped,
            energy_pj: self.energy_pj - before.energy_pj,
            latency_ns: self.latency_ns - before.latency_ns,
        }
    }
}

/// One client connection and its shadow.
pub struct Conn {
    sock: TcpStream,
    dec: FrameDecoder,
    buf: Vec<u8>,
    pub checker: Checker,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            sock,
            dec: FrameDecoder::new(MAX_RESPONSE_BODY),
            buf: vec![0; 64 * 1024],
            checker: Checker::new(),
        })
    }
}

/// When a phase stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After every request of each stream has been sent once.
    Done,
    /// At this instant; streams are replayed from the start as often
    /// as needed until then.
    Deadline(Instant),
}

/// What a driven phase did.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    /// From the first send to the last response.
    pub elapsed_s: f64,
    /// Of a phase run to a deadline, every request's latency in ns,
    /// from its batch's send to its own response.
    pub latency: Option<Histogram>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// Per-connection progress through its stream.
#[derive(Debug, Default, Clone, Copy)]
struct Cursor {
    /// Requests sent so far (stream positions wrap).
    sent: usize,
    /// Requests answered so far.
    done: usize,
    sent_at: Option<Instant>,
}

/// Drive `streams` (one per connection) in a closed loop: each
/// connection keeps one batch of up to [`DEPTH`] requests in flight and
/// sends the next batch once every response of the last has arrived.
/// A phase run to a deadline keeps every request's latency.
pub fn drive(
    conns: &mut [Conn; CONNS],
    wl: &Workload,
    streams: [&Stream; CONNS],
    until: Until,
) -> Result<Phase> {
    let mut cur = [Cursor::default(); CONNS];
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut latency = match until {
        Until::Deadline(_) => Some(Histogram::default()),
        Until::Done => None,
    };
    loop {
        let now = Instant::now();
        for c in 0..CONNS {
            let s = streams[c];
            let idle = cur[c].done == cur[c].sent;
            let may_send = match until {
                Until::Done => cur[c].sent < s.len(),
                Until::Deadline(t) => now < t && !s.is_empty(),
            };
            if idle && may_send {
                let batch = s.batch((cur[c].sent / DEPTH) % s.batches());
                conns[c]
                    .sock
                    .write_all(s.frames(batch.clone()))
                    .map_err(|e| format!("send: {e}"))?;
                cur[c].sent += batch.len();
                cur[c].sent_at = Some(Instant::now());
            }
        }
        let waiting: Vec<usize> = (0..CONNS).filter(|&c| cur[c].done < cur[c].sent).collect();
        if waiting.is_empty() {
            break;
        }
        let mut fds: Vec<PollFd> = waiting
            .iter()
            .map(|&c| PollFd {
                fd: conns[c].sock.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd structs laid out as the C struct, and each
        // fd belongs to a socket that outlives this call.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, 10_000) };
        if ready < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == ErrorKind::Interrupted {
                continue;
            }
            return Err(format!("poll: {err}"));
        }
        if ready == 0 {
            return Err("no response from the server for 10 s".to_string());
        }
        for (fd, &c) in fds.iter().zip(&waiting) {
            if fd.revents == 0 {
                continue;
            }
            let conn = &mut conns[c];
            let got = conn
                .sock
                .read(&mut conn.buf)
                .map_err(|e| format!("receive: {e}"))?;
            if got == 0 {
                return Err("server closed a connection with requests outstanding".to_string());
            }
            let arrived = Instant::now();
            conn.dec.extend(&conn.buf[..got]);
            let s = streams[c];
            while let Some(frame) = conn
                .dec
                .next_frame()
                .map_err(|e| format!("bad response frame: {e}"))?
            {
                if cur[c].done == cur[c].sent {
                    return Err("response to a request never sent".to_string());
                }
                let op: Op = s.ops[cur[c].done % s.len()];
                let terminal = !is_continuation(&frame);
                let verdict = conn.checker.on_frame(op, &wl.values, &frame);
                debug_assert_eq!(verdict.is_some(), terminal);
                let Some(ok) = verdict else { continue };
                cur[c].done += 1;
                phase.ops += 1;
                phase.failed += u64::from(!ok);
                if let Some(h) = latency.as_mut() {
                    let sent_at = cur[c].sent_at.expect("a batch is in flight");
                    let ns = arrived.duration_since(sent_at).as_nanos();
                    h.record(u32::try_from(ns).unwrap_or(u32::MAX));
                }
            }
        }
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.latency = latency;
    Ok(phase)
}

/// The read-back check run after the timed phase: GET every live key
/// of each connection, then stream-scan its whole half.
pub fn readback_streams(conns: &[Conn; CONNS], wl: &Workload) -> [Stream; CONNS] {
    let mut out: [Stream; CONNS] = Default::default();
    for (c, stream) in out.iter_mut().enumerate() {
        for key in conns[c].checker.keys() {
            stream.push(Op::Get(key), &wl.values);
        }
        let (lo, hi) = half_range(c);
        stream.push(Op::Scan { lo, hi, limit: 0 }, &wl.values);
    }
    out
}

/// One set-up: spawn → listening → every record loaded.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    pub train_s: f64,
    pub load_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.train_s + self.load_s
    }
}

/// Start a server over a fresh `data_dir` and load the workload's
/// records into it.
pub fn set_up(
    exe: &Path,
    wl: &Workload,
    data_dir: &Path,
) -> Result<(Server, [Conn; CONNS], Setup, Phase)> {
    std::fs::create_dir_all(data_dir).map_err(|e| format!("create {}: {e}", data_dir.display()))?;
    let t0 = Instant::now();
    let server = Server::spawn(exe, wl, data_dir)?;
    let train_s = t0.elapsed().as_secs_f64();
    let mut conns = [Conn::connect(server.addr)?, Conn::connect(server.addr)?];
    let load = drive(&mut conns, wl, [&wl.load[0], &wl.load[1]], Until::Done)?;
    let load_s = t0.elapsed().as_secs_f64() - train_s;
    Ok((server, conns, Setup { train_s, load_s }, load))
}
