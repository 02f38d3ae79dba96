//! Running the `lomon` binary as a child process, timed from spawn to
//! reap.

use std::io::{self, Read as _, Write as _};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::sys::{reap, Reaped};

/// One finished invocation.
#[derive(Debug)]
pub struct Invocation {
    pub reaped: Reaped,
    /// Spawn to reap.
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
}

/// Spawn `cmd`, feed it `stdin` (or nothing: stdin is then `/dev/null`),
/// collect both output streams, and reap it. The clock starts just before
/// the spawn and stops when `wait4` returns.
pub fn invoke(cmd: &mut Command, stdin: Option<&[u8]>) -> io::Result<Invocation> {
    cmd.stdin(if stdin.is_some() {
        Stdio::piped()
    } else {
        Stdio::null()
    })
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let mut child_in = child.stdin.take();
    let mut child_out = child.stdout.take().expect("stdout is piped");
    let mut child_err = child.stderr.take().expect("stderr is piped");
    let (stdout, stderr) = std::thread::scope(|s| -> io::Result<_> {
        let writer = s.spawn(move || {
            if let (Some(pipe), Some(bytes)) = (child_in.as_mut(), stdin) {
                // A child that stops reading early (every verdict final)
                // closes the pipe: that is not an error of the benchmark.
                let _ = pipe.write_all(bytes);
            }
            drop(child_in);
        });
        let err_reader = s.spawn(move || {
            let mut buf = Vec::new();
            child_err.read_to_end(&mut buf).map(|_| buf)
        });
        let mut stdout = Vec::new();
        child_out.read_to_end(&mut stdout)?;
        writer.join().expect("stdin writer does not panic");
        let stderr = err_reader.join().expect("stderr reader does not panic")?;
        Ok((stdout, stderr))
    })?;
    let reaped = reap(&child)?;
    Ok(Invocation {
        wall: reaped.at - t0,
        reaped,
        stdout,
        stderr,
    })
}
