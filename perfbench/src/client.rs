//! The query-port client: a buffered line reader that splits the byte
//! stream into whole responses (`OK <n>` … `END`, single-line `OK`/`ERR`)
//! and unsolicited push lines (`FRAME`, `ALERT`).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest a blocking read may wait before the connection is declared
/// stuck: every request the benchmark makes completes far sooner.
pub const STUCK_AFTER: Duration = Duration::from_secs(60);

/// One complete unit read from the query connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A whole response, every line newline-terminated, as sent.
    Response(String),
    /// An unsolicited `FRAME`/`ALERT` line (without its newline).
    Push(String),
}

/// Whether a response starting with `first` continues until `END`.
pub fn is_multiline_header(first: &str) -> bool {
    match first.strip_prefix("OK ") {
        Some(rest) => {
            rest == "stats"
                || rest == "metrics"
                || (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
        }
        None => false,
    }
}

/// Splits bytes into lines and lines into [`Event`]s.
#[derive(Debug, Default)]
pub struct Splitter {
    buf: Vec<u8>,
    /// Start of the unconsumed part of `buf`.
    pos: usize,
    /// The multi-line response being assembled, if any.
    partial: Option<String>,
}

impl Splitter {
    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > (1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete event in the buffered bytes, if any.
    pub fn next_event(&mut self) -> Result<Option<Event>, String> {
        loop {
            let rest = &self.buf[self.pos..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                return Ok(None);
            };
            let line =
                std::str::from_utf8(&rest[..nl]).map_err(|_| "response is not UTF-8".to_owned())?;
            self.pos += nl + 1;
            if let Some(partial) = &mut self.partial {
                partial.push_str(line);
                partial.push('\n');
                if line == "END" {
                    return Ok(self.partial.take().map(Event::Response));
                }
                continue;
            }
            if line.starts_with("FRAME ") || line.starts_with("ALERT ") {
                return Ok(Some(Event::Push(line.to_owned())));
            }
            let mut text = String::with_capacity(line.len() + 1);
            text.push_str(line);
            text.push('\n');
            if is_multiline_header(line) {
                self.partial = Some(text);
                continue;
            }
            return Ok(Some(Event::Response(text)));
        }
    }
}

/// A query connection: writes request lines, reads [`Event`]s.
#[derive(Debug)]
pub struct QueryConn {
    stream: TcpStream,
    splitter: Splitter,
    scratch: Vec<u8>,
}

impl QueryConn {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            splitter: Splitter::default(),
            scratch: vec![0; 256 * 1024],
        })
    }

    /// Sends one request line (a newline is appended).
    pub fn send(&mut self, request: &str) -> io::Result<()> {
        let mut line = Vec::with_capacity(request.len() + 1);
        line.extend_from_slice(request.as_bytes());
        line.push(b'\n');
        self.stream.write_all(&line)
    }

    /// The next event, waiting at most until `deadline` (`Ok(None)` when
    /// it passes first; reads without a deadline give up after
    /// [`STUCK_AFTER`]).
    pub fn next_event(&mut self, deadline: Option<Instant>) -> io::Result<Option<Event>> {
        let stuck = Instant::now() + STUCK_AFTER;
        loop {
            if let Some(event) = self.splitter.next_event().map_err(io::Error::other)? {
                return Ok(Some(event));
            }
            let until = deadline.unwrap_or(stuck);
            let now = Instant::now();
            if now >= until {
                if deadline.is_none() {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "server stopped answering",
                    ));
                }
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some((until - now).max(Duration::from_micros(50))))?;
            match self.stream.read(&mut self.scratch) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the query connection",
                    ))
                }
                Ok(n) => self.splitter.feed(&self.scratch[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends `request` and returns its response, handing any push lines
    /// read on the way to `on_push`.
    pub fn request(
        &mut self,
        request: &str,
        on_push: &mut dyn FnMut(String, Instant),
    ) -> io::Result<String> {
        self.send(request)?;
        loop {
            match self.next_event(None)? {
                Some(Event::Response(text)) => return Ok(text),
                Some(Event::Push(line)) => on_push(line, Instant::now()),
                None => unreachable!("reads without a deadline never time out quietly"),
            }
        }
    }
}

/// The fields of a pushed `FRAME <key> seq=<n> window=<w> n=<len> <values>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLine {
    /// Series key as rendered.
    pub key: String,
    /// Points of the series ingested when the frame was emitted.
    pub seq: u64,
    /// Chosen smoothing window in panes.
    pub window: usize,
    /// Number of smoothed values.
    pub n: usize,
}

/// Parses a `FRAME` push line (without its newline).
pub fn parse_frame(line: &str) -> Result<FrameLine, String> {
    let bad = || {
        format!(
            "malformed FRAME line `{}`",
            line.chars().take(80).collect::<String>()
        )
    };
    let mut tokens = line.split(' ');
    if tokens.next() != Some("FRAME") {
        return Err(bad());
    }
    let key = tokens.next().ok_or_else(bad)?.to_owned();
    let mut field = |name: &str| -> Result<u64, String> {
        tokens
            .next()
            .and_then(|t| t.strip_prefix(name))
            .and_then(|v| v.parse().ok())
            .ok_or_else(bad)
    };
    let seq = field("seq=")?;
    let window = field("window=")? as usize;
    let n = field("n=")? as usize;
    let values = tokens.next().ok_or_else(bad)?;
    if tokens.next().is_some() || values.split(',').count() != n {
        return Err(bad());
    }
    Ok(FrameLine {
        key,
        seq,
        window,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(chunks: &[&str]) -> Vec<Event> {
        let mut s = Splitter::default();
        let mut out = Vec::new();
        for chunk in chunks {
            s.feed(chunk.as_bytes());
            while let Some(e) = s.next_event().unwrap() {
                out.push(e);
            }
        }
        out
    }

    #[test]
    fn multi_line_responses_end_at_end_even_when_split_anywhere() {
        let text = "OK 1\nSERIES cpu{host=a} 2\n1 0.5\n2 0.25\nEND\n";
        let whole = events(&[text]);
        assert_eq!(whole, vec![Event::Response(text.to_owned())]);
        for cut in 1..text.len() {
            assert_eq!(events(&[&text[..cut], &text[cut..]]), whole, "cut at {cut}");
        }
    }

    #[test]
    fn single_line_ok_and_err_and_push_lines() {
        let got = events(&[
            "OK subscribed 1 every=1000 alert=none\nFRAME k seq=1000 window=3 n=2 1,2\n",
            "ERR unknown command `NOPE`\nOK 0\nEND\nALERT k seq=5 dir=up run=3 mean_z=4\n",
        ]);
        assert_eq!(
            got,
            vec![
                Event::Response("OK subscribed 1 every=1000 alert=none\n".into()),
                Event::Push("FRAME k seq=1000 window=3 n=2 1,2".into()),
                Event::Response("ERR unknown command `NOPE`\n".into()),
                Event::Response("OK 0\nEND\n".into()),
                Event::Push("ALERT k seq=5 dir=up run=3 mean_z=4".into()),
            ]
        );
        assert!(is_multiline_header("OK metrics"));
        assert!(is_multiline_header("OK stats"));
        assert!(!is_multiline_header("OK healthy"));
        assert!(!is_multiline_header("OK "));
        assert!(!is_multiline_header("ERR 3"));
    }

    #[test]
    fn partial_lines_wait_for_more_bytes() {
        let mut s = Splitter::default();
        s.feed(b"OK 0\nEN");
        assert_eq!(s.next_event().unwrap(), None);
        s.feed(b"D\n");
        assert_eq!(
            s.next_event().unwrap(),
            Some(Event::Response("OK 0\nEND\n".into()))
        );
        assert_eq!(s.next_event().unwrap(), None);
    }

    #[test]
    fn frame_lines_parse_and_malformed_ones_do_not() {
        let f = parse_frame("FRAME req.rate{host=h00} seq=2000 window=4 n=3 1.5,2,-0.25").unwrap();
        assert_eq!(
            f,
            FrameLine {
                key: "req.rate{host=h00}".into(),
                seq: 2000,
                window: 4,
                n: 3
            }
        );
        for bad in [
            "FRAME k seq=x window=4 n=1 1",
            "FRAME k seq=1 window=4 n=2 1",
            "FRAME k seq=1 window=4 n=1 1 extra",
            "FRAME k seq=1 n=1 1",
            "ALERT k seq=1 dir=up run=3 mean_z=2",
        ] {
            assert!(parse_frame(bad).is_err(), "{bad}");
        }
    }
}
