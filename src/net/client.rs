//! The blocking `MISP 1` client connector.

use super::codec::{decode_error_payload, decode_outcome_payload, encode_request_frame};
use super::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use crate::serve::{SolveOutcome, SolveRequest};
use crate::Error;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// One decoded response: which request it answers (by the correlation id
/// [`Client::submit`] returned) and the outcome itself — including
/// solve-time failures, which arrive as
/// [`outcome.error`](SolveOutcome::error) data exactly as the library
/// reports them. Responses arrive in *completion* order, not submission
/// order; pipeline requests and match replies by correlation.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The correlation id of the request this answers.
    pub correlation: u64,
    /// The outcome, byte-identical (by
    /// [`fingerprint`](SolveOutcome::fingerprint)) to what an in-process
    /// submission of the same request would have produced.
    pub outcome: SolveOutcome,
}

/// A blocking `MISP 1` connection to a [`Server`](super::Server).
///
/// [`submit`](Self::submit) and [`recv`](Self::recv) may be freely
/// interleaved to pipeline; for a sender thread and a receiver thread, use
/// [`split`](Self::split).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_frame_payload: u32,
    next_correlation: u64,
}

impl Client {
    /// Connects with the default frame-payload cap
    /// ([`DEFAULT_MAX_PAYLOAD`]).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_with(addr, DEFAULT_MAX_PAYLOAD)
    }

    /// Connects with an explicit cap on accepted response payloads.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        max_frame_payload: u32,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            max_frame_payload,
            next_correlation: 0,
        })
    }

    /// Encodes and sends one request frame, returning the correlation id
    /// (sequential from 0 per connection) its [`Reply`] will carry.
    pub fn submit(&mut self, request: &SolveRequest) -> Result<u64, Error> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        let bytes = encode_request_frame(correlation, request);
        self.stream.write_all(&bytes)?;
        Ok(correlation)
    }

    /// Blocks for the next response frame. Outcome frames decode to a
    /// [`Reply`]; error frames (the server rejected a frame this side
    /// sent) surface as [`Error::Remote`].
    pub fn recv(&mut self) -> Result<Reply, Error> {
        recv_reply(&mut self.stream, self.max_frame_payload)
    }

    /// Splits the connection into an independently owned sender and
    /// receiver (e.g. a submission thread and a collection thread), via
    /// [`TcpStream::try_clone`].
    pub fn split(self) -> std::io::Result<(ClientSender, ClientReceiver)> {
        let read_half = self.stream.try_clone()?;
        Ok((
            ClientSender {
                stream: self.stream,
                next_correlation: self.next_correlation,
            },
            ClientReceiver {
                stream: read_half,
                max_frame_payload: self.max_frame_payload,
            },
        ))
    }
}

/// The sending half of a [`split`](Client::split) connection.
#[derive(Debug)]
pub struct ClientSender {
    stream: TcpStream,
    next_correlation: u64,
}

impl ClientSender {
    /// See [`Client::submit`].
    pub fn submit(&mut self, request: &SolveRequest) -> Result<u64, Error> {
        let correlation = self.next_correlation;
        self.next_correlation += 1;
        let bytes = encode_request_frame(correlation, request);
        self.stream.write_all(&bytes)?;
        Ok(correlation)
    }
}

/// The receiving half of a [`split`](Client::split) connection.
#[derive(Debug)]
pub struct ClientReceiver {
    stream: TcpStream,
    max_frame_payload: u32,
}

impl ClientReceiver {
    /// See [`Client::recv`].
    pub fn recv(&mut self) -> Result<Reply, Error> {
        recv_reply(&mut self.stream, self.max_frame_payload)
    }
}

fn recv_reply(stream: &mut TcpStream, max_frame_payload: u32) -> Result<Reply, Error> {
    match frame::read_frame(stream, max_frame_payload)? {
        ReadFrame::Frame(FrameKind::Outcome, payload) => {
            let (correlation, outcome) = decode_outcome_payload(&payload)?;
            Ok(Reply {
                correlation,
                outcome,
            })
        }
        ReadFrame::Frame(FrameKind::Error, payload) => {
            Err(Error::Remote(decode_error_payload(&payload)?))
        }
        ReadFrame::Frame(FrameKind::Request, _) => {
            Err(Error::Frame(frame::FrameError::Malformed {
                offset: 0,
                detail: "request frame on a client connection",
            }))
        }
        ReadFrame::Eof => Err(Error::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ))),
    }
}
