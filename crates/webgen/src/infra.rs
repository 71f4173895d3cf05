//! Server infrastructure: IPs, AS placement, regions, backend classes.

use crate::asn::AsId;
use netsim::latency::BackendClass;
use netsim::Region;
use std::collections::HashMap;

/// One server (the paper uses "server" for an IP address, §8.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Address label (never anonymized — the paper anonymizes clients only).
    pub ip: u32,
    /// The AS announcing this address.
    pub asn: AsId,
    /// Geographic region (drives RTT).
    pub region: Region,
    /// Backend class (drives the HTTP−TCP handshake gap).
    pub backend: BackendClass,
}

/// Registry of all servers plus hostname → server assignment.
///
/// Hostnames map to one or more IPs; multi-IP hosts model front-end farms.
/// Distinct hostnames may share an IP (CDN edges, virtual hosting) — that is
/// what lets the same infrastructure serve both ad and regular content, one
/// of the paper's §8.1 findings.
#[derive(Debug, Clone, Default)]
pub struct ServerRegistry {
    servers: Vec<Server>,
    by_ip: HashMap<u32, usize>,
    hosts: HashMap<String, Vec<u32>>,
    next_ip: u32,
}

impl ServerRegistry {
    /// Empty registry; server IPs are allocated from 1,000,000 upward so
    /// they can never collide with client labels.
    pub fn new() -> ServerRegistry {
        ServerRegistry {
            next_ip: 1_000_000,
            ..Default::default()
        }
    }

    /// Allocate a new server.
    pub(crate) fn add_server(&mut self, asn: AsId, region: Region, backend: BackendClass) -> u32 {
        let ip = self.next_ip;
        self.next_ip += 1;
        self.by_ip.insert(ip, self.servers.len());
        self.servers.push(Server {
            ip,
            asn,
            region,
            backend,
        });
        ip
    }

    /// Bind a hostname to a set of server IPs (replaces any previous
    /// binding).
    pub(crate) fn bind_host(&mut self, host: &str, ips: Vec<u32>) {
        assert!(!ips.is_empty(), "host must have at least one server");
        for ip in &ips {
            assert!(self.by_ip.contains_key(ip), "unknown server ip {ip}");
        }
        self.hosts.insert(host.to_ascii_lowercase(), ips);
    }

    /// Resolve a hostname to one of its servers. Deterministic per
    /// (host, salt): the same client keeps hitting the same front-end, while
    /// different clients spread across the farm — a cheap consistent-hash.
    pub(crate) fn resolve(&self, host: &str, salt: u64) -> Option<&Server> {
        let ips = self.hosts.get(&host.to_ascii_lowercase())?;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in host.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h ^= salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let ip = ips[(h % ips.len() as u64) as usize];
        self.server_by_ip(ip)
    }

    /// Look up a server by IP.
    pub fn server_by_ip(&self, ip: u32) -> Option<&Server> {
        self.by_ip.get(&ip).map(|&i| &self.servers[i])
    }

    /// All servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::AsRegistry;

    #[test]
    fn allocate_and_resolve() {
        let reg = AsRegistry::standard();
        let mut s = ServerRegistry::new();
        let a = s.add_server(reg.all()[0].id, Region::European, BackendClass::Static);
        let b = s.add_server(reg.all()[0].id, Region::European, BackendClass::Static);
        s.bind_host("www.example.com", vec![a, b]);
        let r = s.resolve("WWW.EXAMPLE.COM", 1).unwrap();
        assert!(r.ip == a || r.ip == b);
        assert_eq!(s.resolve("unknown.host", 1), None);
    }

    #[test]
    fn resolution_is_deterministic_per_salt() {
        let reg = AsRegistry::standard();
        let mut s = ServerRegistry::new();
        let ips: Vec<u32> = (0..8)
            .map(|_| s.add_server(reg.all()[1].id, Region::UsEast, BackendClass::Dynamic))
            .collect();
        s.bind_host("farm.example", ips);
        let first = s.resolve("farm.example", 42).unwrap().ip;
        for _ in 0..10 {
            assert_eq!(s.resolve("farm.example", 42).unwrap().ip, first);
        }
        // Different salts spread over the farm.
        let distinct: std::collections::HashSet<u32> = (0..100)
            .map(|salt| s.resolve("farm.example", salt).unwrap().ip)
            .collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn shared_ip_across_hosts() {
        let reg = AsRegistry::standard();
        let mut s = ServerRegistry::new();
        let edge = s.add_server(reg.all()[2].id, Region::IspCache, BackendClass::Static);
        s.bind_host("content.pub1.example", vec![edge]);
        s.bind_host("ads.net1.example", vec![edge]);
        assert_eq!(s.resolve("content.pub1.example", 0).unwrap().ip, edge);
        assert_eq!(s.resolve("ads.net1.example", 0).unwrap().ip, edge);
        assert_eq!(s.len(), 1, "one physical server, two hostnames");
    }

    #[test]
    fn ips_unique_and_high() {
        let reg = AsRegistry::standard();
        let mut s = ServerRegistry::new();
        let mut ips = Vec::new();
        for _ in 0..100 {
            ips.push(s.add_server(reg.all()[0].id, Region::Asia, BackendClass::Static));
        }
        let mut dedup = ips.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ips.len());
        assert!(ips.iter().all(|&ip| ip >= 1_000_000));
    }

    #[test]
    #[should_panic]
    fn binding_unknown_ip_panics() {
        let mut s = ServerRegistry::new();
        s.bind_host("x.example", vec![123]);
    }
}
