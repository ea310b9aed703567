//! A tiny blocking HTTP/1.1 client — just enough to exercise `lold`
//! from tests and from `lold-bench` without external dependencies.
//!
//! Speaks keep-alive by default and parses the same bounded subset the
//! server emits. Not a general-purpose client: no TLS, no redirects,
//! no chunked bodies.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One keep-alive connection to a `lold` server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    addr: String,
}

impl Conn {
    /// Connect to `addr` (e.g. `127.0.0.1:4040`).
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // Requests go out in one write and wait for their answer, so
        // Nagle's algorithm would only hold a segment back for the
        // peer's delayed ACK.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { reader: BufReader::new(stream), addr: addr.to_string() })
    }

    /// The address this connection targets.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Send one request and read one response. The connection stays
    /// open unless the server answered `Connection: close`.
    ///
    /// A write failure falls through to reading: a server rejecting
    /// early (e.g. a `429` from the accept thread) may respond and
    /// close before we finish sending, which surfaces here as a broken
    /// pipe — the response is still in our receive buffer.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let mut req = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if method == "POST" || !body.is_empty() {
            req.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        req.push_str("\r\n");
        // Head and body in one buffer, one write: one segment for the
        // server to read, not two.
        let mut req = req.into_bytes();
        req.extend_from_slice(body);
        let stream = self.reader.get_mut();
        let sent = stream.write_all(&req).and_then(|()| stream.flush());
        match self.read_response() {
            Ok(resp) => Ok(resp),
            // If the read also fails, the write error (if any) is the
            // more truthful diagnosis.
            Err(read_err) => Err(sent.err().unwrap_or(read_err)),
        }
    }

    /// Send raw bytes verbatim (for malformed-request tests) and read
    /// one response.
    pub fn send_raw(&mut self, raw: &[u8]) -> std::io::Result<Response> {
        let stream = self.reader.get_mut();
        stream.write_all(raw)?;
        stream.flush()?;
        self.read_response()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            let n = self.reader.read(&mut byte)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-response",
                ));
            }
            if byte[0] == b'\n' {
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            line.push(byte[0]);
            if line.len() > 64 * 1024 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "response header line too long",
                ));
            }
        }
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let status_line = self.read_line()?;
        let status: u16 =
            status_line.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, headers, body })
    }
}

/// One-shot `GET` on a fresh connection.
pub fn get(addr: &str, path: &str) -> std::io::Result<Response> {
    Conn::connect(addr)?.request("GET", path, b"")
}

/// One-shot `POST` on a fresh connection.
pub fn post(addr: &str, path: &str, body: &str) -> std::io::Result<Response> {
    Conn::connect(addr)?.request("POST", path, body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = Conn::connect(&listener.local_addr().unwrap().to_string()).unwrap();
        assert!(conn.reader.get_ref().nodelay().unwrap());
    }
}
