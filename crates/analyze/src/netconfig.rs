//! Multi-process deployment (`edgelet-net`) configuration checks.
//!
//! The socket runtime adds three configuration surfaces that deserve a
//! diagnostic before any process binds or dials:
//!
//! * `E150` — a deployment that cannot form: an unresolvable listen or
//!   connect address, a daemon told to dial its own listen address
//!   (duplicate endpoint), or a zero remote worker count;
//! * `W151` — TCP reconnects without explicit backoff bounds: across a
//!   real network the defaults may thrash a flaky link or sit idle on a
//!   fast one, so the bounds should be a deliberate choice;
//! * `W152` — a handshake timeout at or beyond the query deadline: a
//!   worker that stalls in handshake eats the entire query budget
//!   before the daemon gives up on it.
//!
//! Addresses are parsed once, by the caller, with `edgelet_net::Addr::parse`;
//! this pass only reports the verdict it is handed.

use crate::diagnostic::{codes, Diagnostic};

/// One address as given, with the caller's parse verdict: `Ok(true)` for
/// TCP, `Ok(false)` for a Unix socket, or the parse error's text.
pub type Endpoint<'a> = (&'a str, Result<bool, String>);

/// The deployment surface of one `serve`/`submit`/`worker` invocation.
/// Fields the invocation does not carry stay `None`/`false`.
#[derive(Debug, Default, Clone)]
pub struct NetSurface<'a> {
    /// `--listen` address (daemon mode).
    pub listen: Option<Endpoint<'a>>,
    /// `--connect` address (client or worker mode).
    pub connect: Option<Endpoint<'a>>,
    /// Remote worker processes per epoch (`Some` in daemon mode).
    pub expected_workers: Option<usize>,
    /// Both reconnect backoff bounds were given explicitly.
    pub explicit_backoff: bool,
    /// Handshake deadline in milliseconds, when the surface has one.
    pub handshake_timeout_ms: Option<u64>,
    /// The query's virtual deadline in seconds, when known.
    pub deadline_secs: Option<f64>,
}

/// Checks one deployment surface; see the module docs for the codes.
pub fn check_net_config(surface: &NetSurface<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (what, endpoint) in [
        ("net.listen", &surface.listen),
        ("net.connect", &surface.connect),
    ] {
        if let Some((addr, Err(why))) = endpoint {
            out.push(
                Diagnostic::error(
                    codes::NET_ENDPOINT_INVALID,
                    what,
                    format!("unresolvable address `{addr}`: {why}"),
                )
                .with_help("addresses are `uds:<path>` or `tcp:<host>:<port>`"),
            );
        }
    }
    if let (Some((listen, _)), Some((connect, _))) = (&surface.listen, &surface.connect) {
        if listen == connect {
            out.push(
                Diagnostic::error(
                    codes::NET_ENDPOINT_INVALID,
                    "net.connect",
                    format!(
                        "listen and connect name the same endpoint `{listen}`: \
                         a daemon dialing its own socket deadlocks the accept loop"
                    ),
                )
                .with_help("point --connect at a *different* daemon's address"),
            );
        }
    }
    if surface.expected_workers == Some(0) {
        out.push(
            Diagnostic::error(
                codes::NET_ENDPOINT_INVALID,
                "net.expected_workers",
                "0 remote workers: the daemon can never assemble a fleet, \
                 so every epoch silently falls back in-process",
            )
            .with_help("set --expected-workers >= 1, or drop --listen"),
        );
    }
    if matches!(surface.connect, Some((_, Ok(true)))) && !surface.explicit_backoff {
        out.push(
            Diagnostic::warning(
                codes::NET_TCP_DEFAULT_BACKOFF,
                "net.backoff",
                "TCP reconnect without explicit backoff bounds: the defaults \
                 (50ms..2s) may thrash a flaky WAN link or idle a fast LAN",
            )
            .with_help("set --backoff-initial-ms and --backoff-max-ms deliberately"),
        );
    }
    if let (Some(ms), Some(deadline)) = (surface.handshake_timeout_ms, surface.deadline_secs) {
        if deadline > 0.0 && ms as f64 / 1_000.0 >= deadline {
            out.push(
                Diagnostic::warning(
                    codes::NET_HANDSHAKE_OVER_DEADLINE,
                    "net.handshake_timeout",
                    format!(
                        "handshake timeout of {ms} ms is at or beyond the query \
                         deadline ({deadline} s): one stalled handshake can eat \
                         the whole query budget"
                    ),
                )
                .with_help("keep --handshake-timeout-ms well below the deadline"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Severity;

    #[test]
    fn well_formed_surfaces_are_clean() {
        let s = NetSurface {
            listen: Some(("uds:/tmp/edgelet.sock", Ok(false))),
            expected_workers: Some(2),
            handshake_timeout_ms: Some(10_000),
            deadline_secs: Some(600.0),
            ..NetSurface::default()
        };
        assert!(check_net_config(&s).is_empty());
        let s = NetSurface {
            connect: Some(("tcp:127.0.0.1:7000", Ok(true))),
            explicit_backoff: true,
            ..NetSurface::default()
        };
        assert!(check_net_config(&s).is_empty());
    }

    #[test]
    fn bad_addresses_are_e150() {
        // The parser's own error text is what the finding carries.
        let bad = || {
            Some((
                "ipc:/tmp/x",
                Err("address must start with uds: or tcp:".into()),
            ))
        };
        for (what, s) in [
            (
                "listen",
                NetSurface {
                    listen: bad(),
                    ..NetSurface::default()
                },
            ),
            (
                "connect",
                NetSurface {
                    connect: bad(),
                    ..NetSurface::default()
                },
            ),
        ] {
            let found = check_net_config(&s);
            assert_eq!(found.len(), 1, "{what}: {found:?}");
            assert_eq!(found[0].code, codes::NET_ENDPOINT_INVALID, "{what}");
            assert_eq!(found[0].severity, Severity::Error);
            assert_eq!(found[0].location, format!("net.{what}"));
            assert!(found[0].message.contains("must start with"), "{found:?}");
        }
    }

    #[test]
    fn self_dial_and_zero_workers_are_e150() {
        let s = NetSurface {
            listen: Some(("uds:/tmp/a.sock", Ok(false))),
            connect: Some(("uds:/tmp/a.sock", Ok(false))),
            ..NetSurface::default()
        };
        let found = check_net_config(&s);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("same endpoint"), "{found:?}");
        let s = NetSurface {
            listen: Some(("uds:/tmp/a.sock", Ok(false))),
            expected_workers: Some(0),
            ..NetSurface::default()
        };
        let found = check_net_config(&s);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("0 remote workers"), "{found:?}");
    }

    #[test]
    fn tcp_default_backoff_warns_w151() {
        let s = NetSurface {
            connect: Some(("tcp:10.0.0.2:7000", Ok(true))),
            ..NetSurface::default()
        };
        let found = check_net_config(&s);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, codes::NET_TCP_DEFAULT_BACKOFF);
        assert_eq!(found[0].severity, Severity::Warning);
        // UDS reconnects are local; the defaults are fine.
        let s = NetSurface {
            connect: Some(("uds:/tmp/a.sock", Ok(false))),
            ..NetSurface::default()
        };
        assert!(check_net_config(&s).is_empty());
    }

    #[test]
    fn handshake_past_deadline_warns_w152() {
        let s = NetSurface {
            listen: Some(("uds:/tmp/a.sock", Ok(false))),
            expected_workers: Some(2),
            handshake_timeout_ms: Some(700_000),
            deadline_secs: Some(600.0),
            ..NetSurface::default()
        };
        let found = check_net_config(&s);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].code, codes::NET_HANDSHAKE_OVER_DEADLINE);
        assert_eq!(found[0].severity, Severity::Warning);
        // Exactly at the deadline still warns; below it is clean.
        let s = NetSurface {
            handshake_timeout_ms: Some(600_000),
            deadline_secs: Some(600.0),
            ..NetSurface::default()
        };
        assert_eq!(check_net_config(&s).len(), 1);
        let s = NetSurface {
            handshake_timeout_ms: Some(10_000),
            deadline_secs: Some(600.0),
            ..NetSurface::default()
        };
        assert!(check_net_config(&s).is_empty());
    }

    #[test]
    fn problems_compose() {
        let s = NetSurface {
            listen: Some(("ipc:bad", Err("no scheme".into()))),
            connect: Some(("tcp:h:1", Ok(true))),
            expected_workers: Some(0),
            handshake_timeout_ms: Some(1_000_000),
            deadline_secs: Some(600.0),
            ..NetSurface::default()
        };
        let found = check_net_config(&s);
        assert!(found.len() >= 4, "{found:?}");
    }
}
