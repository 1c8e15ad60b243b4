//! A tiny blocking HTTP/1.1 client over one keep-alive connection — just
//! enough for the end-to-end tests and the benchmark's `served_sessions`
//! clients.  Not a general HTTP client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded HTTP response: status, headers (names lower-cased) and body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr` with a 30 s I/O timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(HttpClient {
            reader,
            writer: stream,
        })
    }

    /// Sends a `GET` and returns `(status, body)`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, None, &[])
            .map(|r| (r.status, r.body))
    }

    /// Sends a `POST` with a JSON body and returns `(status, body)`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, Some(body), &[])
            .map(|r| (r.status, r.body))
    }

    /// Sends a `GET` and returns the full response including headers.
    pub fn get_full(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None, &[])
    }

    /// Sends a `POST` and returns the full response including headers
    /// (e.g. `Retry-After` on a `503` shed).
    pub fn post_full(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body), &[])
    }

    /// Sends a `POST` with extra request headers (e.g. `X-Request-Id`) and
    /// returns the full response.  Header values must be CRLF-free.
    pub fn post_with_headers(
        &mut self,
        path: &str,
        body: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body), extra_headers)
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: lcmsr\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        // "HTTP/1.1 200 OK"
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| bad("malformed Content-Length"))?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|body| ClientResponse {
                status,
                headers,
                body,
            })
            .map_err(|_| bad("response body is not UTF-8"))
    }
}
