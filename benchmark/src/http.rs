//! A minimal keep-alive HTTP/1.1 client for the load generator.
//!
//! Head and body go out in **one** `write_all` on a `TCP_NODELAY`
//! socket. Two small writes on a Nagle-enabled socket stall ~40 ms per
//! request behind delayed ACKs — that client-side stall is what the
//! old `BENCH_serve.json` measured. The traced run additionally
//! asserts client-observed minus server-observed latency stays under
//! 1 ms, so a generator stall can never again pass as server time.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
    buf: Vec<u8>,
}

/// A response: status code and body text.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body (always JSON from this server).
    pub body: String,
}

impl Client {
    /// Connect with `TCP_NODELAY` and a generous I/O timeout (a hung
    /// server fails the run instead of hanging it).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            host: addr.to_string(),
            buf: Vec::with_capacity(1024),
        })
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.send("POST", path, body)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send("GET", path, "")
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Accept: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.host,
            body.len()
        )?;
        self.buf.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.buf)?;
        read_response(&mut self.reader)
    }
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Read one `Content-Length`-framed response.
fn read_response(r: &mut impl BufRead) -> std::io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the response head".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
            }
        }
    }
    // The server only ever sends small JSON bodies; refuse a length
    // that could only come from a framing error.
    if length > 64 << 20 {
        return Err(bad(format!("implausible Content-Length {length}")));
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|body| Response { status, body })
        .map_err(|_| bad("response body is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_framed_response_and_leaves_the_next_one() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 7\r\n\r\n\
                     {\"a\":1}HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\n\r\n{}";
        let mut r = BufReader::new(&wire[..]);
        let first = read_response(&mut r).unwrap();
        assert_eq!((first.status, first.body.as_str()), (200, "{\"a\":1}"));
        let second = read_response(&mut r).unwrap();
        assert_eq!((second.status, second.body.as_str()), (400, "{}"));
        assert!(
            read_response(&mut r).is_err(),
            "EOF is an error, not a hang"
        );
    }

    #[test]
    fn rejects_garbage_framing() {
        let mut r = BufReader::new(&b"nonsense\r\n\r\n"[..]);
        assert!(read_response(&mut r).is_err());
        let mut r = BufReader::new(&b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n"[..]);
        assert!(read_response(&mut r).is_err());
    }
}
