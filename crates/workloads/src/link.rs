//! Communication-link models: the network and PCIe stages of the
//! paper's pipelines.
//!
//! The paper treats data movement as first-class pipeline nodes ("we
//! model two types of communication links, traditional network links
//! and PCIe buses"). A [`LinkModel`] captures the packet-level reality
//! behind a nominal bandwidth: MTU/TLP payload segmentation, per-packet
//! header overhead, and a base propagation/setup latency. From it we
//! derive the effective throughput and the `l_max` packetization term
//! the network-calculus model needs.

use serde::Serialize;

/// A store-and-forward link with per-packet overhead.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LinkModel {
    /// Raw line rate in bytes/s.
    pub line_rate: f64,
    /// Maximum payload bytes per packet (MTU minus headers / TLP
    /// payload size).
    pub payload_per_packet: u64,
    /// Header/framing bytes transmitted per packet.
    pub overhead_per_packet: u64,
    /// Fixed latency per transfer, seconds (propagation + setup).
    pub base_latency: f64,
}

impl LinkModel {
    /// 10 GbE carrying TCP/IPv4 over standard 1500-byte MTU frames
    /// (the paper's FPGA TCP stack [15, 24]); ~94% payload efficiency.
    pub fn ten_gbe() -> LinkModel {
        LinkModel {
            line_rate: 10.0e9 / 8.0,
            // 1500 MTU − 20 IP − 20 TCP.
            payload_per_packet: 1460,
            // 14 Ethernet + 4 FCS + 8 preamble + 12 IFG + 40 TCP/IP.
            overhead_per_packet: 78,
            base_latency: 10.0e-6,
        }
    }

    /// PCIe Gen3 ×16: 128 b/130 b line coding already folded into the
    /// ~15.75 GB/s usable rate; 256-byte TLP payloads with ~24 bytes of
    /// TLP/DLLP framing.
    pub fn pcie_gen3_x16() -> LinkModel {
        LinkModel {
            line_rate: 15.75e9,
            payload_per_packet: 256,
            overhead_per_packet: 24,
            base_latency: 1.0e-6,
        }
    }

    /// Packets needed for `bytes` of payload.
    pub fn packets_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.payload_per_packet)
    }

    /// Wire time for a transfer of `bytes`, including per-packet
    /// overhead and base latency.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        let packets = self.packets_for(bytes);
        let wire_bytes = bytes + packets * self.overhead_per_packet;
        self.base_latency + wire_bytes as f64 / self.line_rate
    }

    /// Effective payload throughput for `bytes`-sized transfers
    /// (asymptotically `line_rate · payload/(payload+overhead)`).
    pub fn effective_rate(&self, bytes: u64) -> f64 {
        assert!(bytes > 0);
        bytes as f64 / self.transfer_time(bytes)
    }

    /// Asymptotic payload efficiency (0, 1].
    pub fn efficiency(&self) -> f64 {
        self.payload_per_packet as f64 / (self.payload_per_packet + self.overhead_per_packet) as f64
    }

    /// Asymptotic effective rate, bytes/s.
    pub fn asymptotic_rate(&self) -> f64 {
        self.line_rate * self.efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_math() {
        let l = LinkModel::ten_gbe();
        assert_eq!(l.packets_for(1), 1);
        assert_eq!(l.packets_for(1460), 1);
        assert_eq!(l.packets_for(1461), 2);
        assert_eq!(l.packets_for(14600), 10);
    }

    #[test]
    fn overhead_reduces_effective_rate() {
        let l = LinkModel::ten_gbe();
        let eff = l.effective_rate(100 << 20);
        assert!(eff < l.line_rate);
        assert!(eff > 0.9 * l.line_rate, "10GbE efficiency ~94%: {eff}");
        // Small transfers pay the base latency.
        assert!(l.effective_rate(64) < 0.01 * l.line_rate);
    }

    #[test]
    fn effective_rate_monotone_in_size() {
        let l = LinkModel::pcie_gen3_x16();
        let mut prev = 0.0;
        for bytes in [1u64 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26] {
            let r = l.effective_rate(bytes);
            assert!(r > prev, "rate must grow with transfer size");
            prev = r;
        }
        // Asymptote from the efficiency formula.
        let asym = l.asymptotic_rate();
        assert!((l.effective_rate(1 << 30) - asym).abs() / asym < 0.01);
    }

    #[test]
    fn paper_scale_rates() {
        // The paper's Table 2 lists the network at 10 GiB/s and PCIe at
        // 11 GiB/s; our physical models land in the same regime (the
        // paper's figures are nominal link rates).
        let net = LinkModel::ten_gbe().asymptotic_rate();
        assert!(net > 1.0e9, "10GbE payload {net}");
        let pcie = LinkModel::pcie_gen3_x16().asymptotic_rate();
        assert!(pcie > 10.0e9, "PCIe payload {pcie}");
    }
}
