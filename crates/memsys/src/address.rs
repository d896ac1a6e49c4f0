//! Physical-address decoding: configurable channel/rank/bank-group/bank/
//! row/column bit slicing.
//!
//! Every request enters the channel as a byte address; the decoder slices
//! it into DRAM coordinates according to a named [`AddressMapping`]. The
//! mapping decides which locality a software access stream turns into —
//! row-buffer hits ([`RoBaRaCoCh`](AddressMapping::RoBaRaCoCh) keeps
//! consecutive lines in one row) or bank-level parallelism
//! ([`RoCoRaBaCh`](AddressMapping::RoCoRaBaCh) stripes consecutive lines
//! across banks) — which is exactly the knob command-level simulators like
//! Ramulator and DRAMsim3 expose, and which materially shifts mitigation
//! overheads.
//!
//! All field widths are powers of two, so encode→decode is a bijection on
//! `addr_bits()`-wide addresses (pinned by property tests in
//! `tests/address_properties.rs`). Addresses beyond the organisation's
//! capacity are **rejected, not wrapped**: DRAMsim3-class integrations
//! have historically lost rank/channel bits by silently truncating
//! out-of-range addresses, so [`AddressDecoder::decode`] panics (and
//! [`AddressDecoder::try_decode`] errors) instead of aliasing two
//! physical addresses onto one bank.

use crate::config::SystemConfig;

/// The DRAM coordinates of one cache-line address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Channel index.
    pub channel: u32,
    /// Rank index.
    pub rank: u32,
    /// Bank group within the rank.
    pub bank_group: u32,
    /// Bank within the bank group.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// Cache-line column within the row.
    pub column: u32,
}

impl DecodedAddr {
    /// The flat bank index within one rank
    /// (`bank_group × banks_per_group + bank`).
    #[must_use]
    pub fn flat_bank(&self, banks_per_group: u32) -> u32 {
        self.bank_group * banks_per_group + self.bank
    }

    /// The channel-local bank index across all ranks of the channel
    /// (`rank × banks_per_rank + flat_bank`) — what the controller's
    /// per-bank state and the `bank` field of every
    /// [`MemEvent`](crate::MemEvent) are indexed by.
    #[must_use]
    pub fn channel_bank(&self, org: &DramOrg) -> u32 {
        self.rank * org.banks_per_rank() + self.flat_bank(org.banks_per_group)
    }

    /// The system-global bank index
    /// (`channel × ranks × banks_per_rank + channel_bank`) — what
    /// topology-wide consumers such as the red-team oracle address banks
    /// by.
    #[must_use]
    pub fn system_bank(&self, org: &DramOrg) -> u32 {
        self.channel * org.ranks * org.banks_per_rank() + self.channel_bank(org)
    }
}

/// The address fields a mapping orders (channel/rank widths follow the
/// configured topology — zero-width in the Table VI 1×1 system — and the
/// slicer handles any power-of-two width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Channel,
    Rank,
    BankGroup,
    Bank,
    Row,
    Column,
}

/// Named physical-address mappings (Ramulator-style MSB→LSB field order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AddressMapping {
    /// Row-interleaved (MSB `Ro|Bg|Ba|Ra|Co|Ch` LSB): consecutive cache
    /// lines walk the column bits of one row, so streaming accesses become
    /// row-buffer hits. The default.
    #[default]
    RoBaRaCoCh,
    /// Bank-interleaved (MSB `Ro|Co|Ra|Bg|Ba|Ch` LSB): consecutive cache
    /// lines stripe across banks, trading row hits for bank-level
    /// parallelism.
    RoCoRaBaCh,
    /// Sequential / row-major (MSB `Ch|Ra|Bg|Ba|Ro|Co` LSB): each bank
    /// owns one contiguous slab of the address space.
    ChRaBaRoCo,
}

impl AddressMapping {
    /// Every named mapping (for sweeps and property tests).
    #[must_use]
    pub fn all() -> Vec<AddressMapping> {
        vec![
            AddressMapping::RoBaRaCoCh,
            AddressMapping::RoCoRaBaCh,
            AddressMapping::ChRaBaRoCo,
        ]
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AddressMapping::RoBaRaCoCh => "RoBaRaCoCh",
            AddressMapping::RoCoRaBaCh => "RoCoRaBaCh",
            AddressMapping::ChRaBaRoCo => "ChRaBaRoCo",
        }
    }

    /// Parses a mapping from its [`label`](AddressMapping::label) form,
    /// case-insensitively — the inverse of `label`, used by the
    /// declarative [`ScenarioSpec`](crate::ScenarioSpec) text format.
    /// Returns `None` for unknown mappings.
    #[must_use]
    pub fn parse(s: &str) -> Option<AddressMapping> {
        AddressMapping::all()
            .into_iter()
            .find(|m| m.label().eq_ignore_ascii_case(s.trim()))
    }

    /// The field order, most-significant first.
    fn order(self) -> [Field; 6] {
        match self {
            AddressMapping::RoBaRaCoCh => [
                Field::Row,
                Field::BankGroup,
                Field::Bank,
                Field::Rank,
                Field::Column,
                Field::Channel,
            ],
            AddressMapping::RoCoRaBaCh => [
                Field::Row,
                Field::Column,
                Field::Rank,
                Field::BankGroup,
                Field::Bank,
                Field::Channel,
            ],
            AddressMapping::ChRaBaRoCo => [
                Field::Channel,
                Field::Rank,
                Field::BankGroup,
                Field::Bank,
                Field::Row,
                Field::Column,
            ],
        }
    }
}

/// The DRAM organisation the decoder slices addresses for. All counts must
/// be powers of two (bit slicing), which the constructor asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramOrg {
    /// Channels (1 in the evaluated system).
    pub channels: u32,
    /// Ranks per channel (1).
    pub ranks: u32,
    /// Bank groups per rank.
    pub bank_groups: u32,
    /// Banks per bank group.
    pub banks_per_group: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Cache-line columns per row.
    pub columns: u32,
}

impl DramOrg {
    /// The organisation implied by a [`SystemConfig`]: `cfg.channels`
    /// channels of `cfg.ranks` ranks each (Table VI configures 1×1).
    ///
    /// # Panics
    ///
    /// Panics if any field count is not a power of two.
    #[must_use]
    pub fn from_system(cfg: &SystemConfig) -> Self {
        let org = Self {
            channels: cfg.channels,
            ranks: cfg.ranks,
            bank_groups: cfg.bank_groups,
            banks_per_group: cfg.banks_per_group(),
            rows: cfg.rows_per_bank,
            columns: cfg.columns_per_row,
        };
        org.assert_pow2();
        org
    }

    /// Banks per rank (`bank_groups × banks_per_group`).
    #[must_use]
    pub fn banks_per_rank(&self) -> u32 {
        self.bank_groups * self.banks_per_group
    }

    /// Banks in the whole organisation
    /// (`channels × ranks × banks_per_rank`).
    #[must_use]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks * self.banks_per_rank()
    }

    fn assert_pow2(&self) {
        for (name, n) in [
            ("channels", self.channels),
            ("ranks", self.ranks),
            ("bank_groups", self.bank_groups),
            ("banks_per_group", self.banks_per_group),
            ("rows", self.rows),
            ("columns", self.columns),
        ] {
            assert!(
                n.is_power_of_two(),
                "{name} = {n} must be a power of two for bit slicing"
            );
        }
    }

    fn width(&self, f: Field) -> u32 {
        let count = match f {
            Field::Channel => self.channels,
            Field::Rank => self.ranks,
            Field::BankGroup => self.bank_groups,
            Field::Bank => self.banks_per_group,
            Field::Row => self.rows,
            Field::Column => self.columns,
        };
        count.trailing_zeros()
    }

    /// Total cache lines addressable by this organisation.
    #[must_use]
    pub fn lines(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.ranks)
            * u64::from(self.bank_groups)
            * u64::from(self.banks_per_group)
            * u64::from(self.rows)
            * u64::from(self.columns)
    }
}

/// Bits of the cache-line offset within an address (64-byte lines).
pub const LINE_OFFSET_BITS: u32 = 6;

/// An address whose high bits exceed the organisation's capacity — the
/// silent-wrap failure mode DRAMsim3-style integrations are known for
/// (rank/channel bits truncated, two physical addresses aliased onto one
/// bank). The decoder refuses such addresses instead of wrapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressOutOfRange {
    /// The offending byte address.
    pub addr: u64,
    /// Significant bits the organisation can address.
    pub addr_bits: u32,
}

impl std::fmt::Display for AddressOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "address {:#x} out of range: the organisation spans {} address \
             bits (refusing to wrap — see DramOrg)",
            self.addr, self.addr_bits
        )
    }
}

impl std::error::Error for AddressOutOfRange {}

/// A bidirectional physical-address ↔ DRAM-coordinate translator for one
/// organisation and one named mapping.
///
/// # Examples
///
/// ```
/// use mint_memsys::{AddressDecoder, AddressMapping, SystemConfig};
/// let d = AddressDecoder::new(&SystemConfig::table6(), AddressMapping::RoBaRaCoCh);
/// let a = d.decode(0x4000_0040);
/// assert_eq!(d.encode(a), 0x4000_0040);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressDecoder {
    org: DramOrg,
    mapping: AddressMapping,
}

impl AddressDecoder {
    /// Builds a decoder for the organisation implied by `cfg`.
    #[must_use]
    pub fn new(cfg: &SystemConfig, mapping: AddressMapping) -> Self {
        Self {
            org: DramOrg::from_system(cfg),
            mapping,
        }
    }

    /// Builds a decoder for an explicit organisation.
    ///
    /// # Panics
    ///
    /// Panics if any organisation field count is not a power of two.
    #[must_use]
    pub fn with_org(org: DramOrg, mapping: AddressMapping) -> Self {
        org.assert_pow2();
        Self { org, mapping }
    }

    /// The organisation this decoder slices for.
    #[must_use]
    pub fn org(&self) -> &DramOrg {
        &self.org
    }

    /// The mapping in force.
    #[must_use]
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// Significant byte-address bits (line offset + all field widths).
    /// Addresses at or beyond `2^addr_bits()` are rejected by
    /// [`decode`](Self::decode) / [`try_decode`](Self::try_decode).
    #[must_use]
    pub fn addr_bits(&self) -> u32 {
        LINE_OFFSET_BITS
            + self
                .mapping
                .order()
                .iter()
                .map(|&f| self.org.width(f))
                .sum::<u32>()
    }

    /// Slices a byte address into DRAM coordinates. The intra-line offset
    /// is ignored; bits above [`addr_bits`](Self::addr_bits) are **not**
    /// — an address beyond the organisation's capacity panics rather than
    /// silently wrapping onto the wrong channel/rank/bank (use
    /// [`try_decode`](Self::try_decode) for a recoverable error).
    ///
    /// # Panics
    ///
    /// Panics if `addr >= 2^addr_bits()`.
    #[must_use]
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        match self.try_decode(addr) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`decode`](Self::decode): `Err` when the address lies
    /// beyond the organisation's `2^addr_bits()` capacity, instead of
    /// wrapping it onto an aliased bank.
    ///
    /// # Errors
    ///
    /// Returns [`AddressOutOfRange`] if `addr >= 2^addr_bits()`.
    pub fn try_decode(&self, addr: u64) -> Result<DecodedAddr, AddressOutOfRange> {
        let addr_bits = self.addr_bits();
        if addr_bits < u64::BITS && (addr >> addr_bits) != 0 {
            return Err(AddressOutOfRange { addr, addr_bits });
        }
        let mut line = addr >> LINE_OFFSET_BITS;
        let mut out = DecodedAddr {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 0,
            column: 0,
        };
        // Fields are laid out MSB-first, so consume from the LSB in
        // reverse order.
        for &f in self.mapping.order().iter().rev() {
            let w = self.org.width(f);
            let v = (line & ((1u64 << w) - 1)) as u32;
            line >>= w;
            match f {
                Field::Channel => out.channel = v,
                Field::Rank => out.rank = v,
                Field::BankGroup => out.bank_group = v,
                Field::Bank => out.bank = v,
                Field::Row => out.row = v,
                Field::Column => out.column = v,
            }
        }
        Ok(out)
    }

    /// Packs DRAM coordinates back into the byte address of the line's
    /// first byte — the exact inverse of [`decode`](Self::decode) on
    /// line-aligned, in-range addresses.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range for the organisation.
    #[must_use]
    pub fn encode(&self, a: DecodedAddr) -> u64 {
        let mut line = 0u64;
        for &f in self.mapping.order().iter() {
            let w = self.org.width(f);
            let (v, limit) = match f {
                Field::Channel => (a.channel, self.org.channels),
                Field::Rank => (a.rank, self.org.ranks),
                Field::BankGroup => (a.bank_group, self.org.bank_groups),
                Field::Bank => (a.bank, self.org.banks_per_group),
                Field::Row => (a.row, self.org.rows),
                Field::Column => (a.column, self.org.columns),
            };
            assert!(v < limit, "{f:?} = {v} out of range (< {limit})");
            line = (line << w) | u64::from(v);
        }
        line << LINE_OFFSET_BITS
    }

    /// Convenience: the address of `(system_bank, row, column)`, where
    /// `system_bank` is a system-global bank index spanning the whole
    /// topology (channel-major, then rank, then in-rank flat bank — the
    /// inverse of [`DecodedAddr::system_bank`]). In the 1-channel ×
    /// 1-rank organisation this is exactly the in-rank flat bank index.
    /// What the synthetic workload generator and unit tests build
    /// requests from.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[must_use]
    pub fn encode_bank_row(&self, system_bank: u32, row: u32, column: u32) -> u64 {
        let bpg = self.org.banks_per_group;
        let bpr = self.org.banks_per_rank();
        let (rank_major, flat) = (system_bank / bpr, system_bank % bpr);
        let (channel, rank) = (rank_major / self.org.ranks, rank_major % self.org.ranks);
        self.encode(DecodedAddr {
            channel,
            rank,
            bank_group: flat / bpg,
            bank: flat % bpg,
            row,
            column,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoder(mapping: AddressMapping) -> AddressDecoder {
        AddressDecoder::new(&SystemConfig::table6(), mapping)
    }

    #[test]
    fn addr_bits_cover_the_org() {
        // 1 ch (0 b) × 1 rank (0 b) × 8 groups (3 b) × 4 banks (2 b)
        // × 128K rows (17 b) × 128 cols (7 b) + 6 offset bits = 35 bits
        // = 32 GB of lines — the evaluated 32 Gb×8 channel.
        for m in AddressMapping::all() {
            assert_eq!(decoder(m).addr_bits(), 35, "{}", m.label());
        }
    }

    #[test]
    fn round_trip_simple() {
        for m in AddressMapping::all() {
            let d = decoder(m);
            let a = DecodedAddr {
                channel: 0,
                rank: 0,
                bank_group: 5,
                bank: 3,
                row: 77_777,
                column: 101,
            };
            assert_eq!(d.decode(d.encode(a)), a, "{}", m.label());
        }
    }

    #[test]
    fn row_interleaved_keeps_consecutive_lines_in_one_row() {
        let d = decoder(AddressMapping::RoBaRaCoCh);
        let a = d.decode(0x1234_0000);
        let b = d.decode(0x1234_0000 + 64);
        assert_eq!(a.row, b.row);
        assert_eq!(a.flat_bank(4), b.flat_bank(4));
        assert_eq!(b.column, a.column + 1);
    }

    #[test]
    fn bank_interleaved_stripes_consecutive_lines_across_banks() {
        let d = decoder(AddressMapping::RoCoRaBaCh);
        let a = d.decode(0x1234_0000);
        let b = d.decode(0x1234_0000 + 64);
        assert_eq!(a.row, b.row);
        assert_ne!(
            a.flat_bank(4),
            b.flat_bank(4),
            "consecutive lines must land in different banks"
        );
    }

    #[test]
    fn sequential_mapping_walks_columns_then_rows() {
        let d = decoder(AddressMapping::ChRaBaRoCo);
        let a = d.decode(0);
        assert_eq!((a.row, a.column), (0, 0));
        let last_col = d.decode(64 * 127);
        assert_eq!((last_col.row, last_col.column), (0, 127));
        let next_row = d.decode(64 * 128);
        assert_eq!((next_row.row, next_row.column), (1, 0));
        assert_eq!(next_row.flat_bank(4), a.flat_bank(4));
    }

    /// A 2-channel × 4-rank organisation, small enough that exhaustive
    /// bank sweeps stay fast.
    fn multi_org() -> DramOrg {
        DramOrg {
            channels: 2,
            ranks: 4,
            bank_groups: 8,
            banks_per_group: 4,
            rows: 1024,
            columns: 128,
        }
    }

    #[test]
    fn offset_is_ignored_but_high_bits_are_rejected() {
        let d = decoder(AddressMapping::RoBaRaCoCh);
        let base = 0x3_ABCD_1234_u64 & !(64 - 1);
        assert_eq!(d.decode(base), d.decode(base + 63));
        // Beyond 2^addr_bits the decoder must refuse, not wrap: wrapping
        // silently aliases two physical addresses onto one bank (the
        // DRAMsim3 out-of-range-rank-bits pitfall).
        let above = base + (1u64 << d.addr_bits());
        let err = d.try_decode(above).unwrap_err();
        assert_eq!(err.addr, above);
        assert_eq!(err.addr_bits, d.addr_bits());
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_panics_beyond_capacity() {
        let d = decoder(AddressMapping::RoBaRaCoCh);
        let _ = d.decode(1u64 << d.addr_bits());
    }

    #[test]
    fn out_of_range_rank_and_channel_bits_rejected_not_wrapped() {
        // For every mapping of the multi-rank org: the first address past
        // capacity is exactly the one a wrap would alias back to address
        // 0 / channel 0 / rank 0 — which is how rank bits get silently
        // lost. It must be rejected instead.
        for m in AddressMapping::all() {
            let d = AddressDecoder::with_org(multi_org(), m);
            assert!(d.try_decode((1u64 << d.addr_bits()) - 64).is_ok());
            let err = d.try_decode(1u64 << d.addr_bits()).unwrap_err();
            assert_eq!(err.addr_bits, d.addr_bits(), "{}", m.label());
        }
    }

    #[test]
    fn multi_channel_rank_round_trip_every_mapping() {
        // Encode↔decode bijection over every channel × rank corner of the
        // multi-topology org, for all three named mappings.
        for m in AddressMapping::all() {
            let d = AddressDecoder::with_org(multi_org(), m);
            for channel in 0..2 {
                for rank in 0..4 {
                    for (bank_group, bank, row, column) in
                        [(0, 0, 0, 0), (7, 3, 1023, 127), (5, 2, 513, 64)]
                    {
                        let a = DecodedAddr {
                            channel,
                            rank,
                            bank_group,
                            bank,
                            row,
                            column,
                        };
                        assert_eq!(d.decode(d.encode(a)), a, "{}", m.label());
                    }
                }
            }
        }
    }

    #[test]
    fn channel_and_system_bank_indices_are_dense_and_bijective() {
        let org = multi_org();
        let d = AddressDecoder::with_org(org, AddressMapping::RoBaRaCoCh);
        let mut seen = std::collections::HashSet::new();
        for sys_bank in 0..org.total_banks() {
            let a = d.decode(d.encode_bank_row(sys_bank, 9, 3));
            assert_eq!(a.system_bank(&org), sys_bank);
            assert_eq!(
                a.channel_bank(&org),
                sys_bank % (org.ranks * org.banks_per_rank())
            );
            assert!(seen.insert((a.channel, a.rank, a.bank_group, a.bank)));
        }
        assert_eq!(seen.len() as u32, org.total_banks());
    }

    #[test]
    fn encode_bank_row_matches_flat_bank() {
        let d = decoder(AddressMapping::RoBaRaCoCh);
        for flat in [0, 3, 4, 17, 31] {
            let a = d.decode(d.encode_bank_row(flat, 42, 7));
            assert_eq!(a.flat_bank(4), flat);
            assert_eq!(a.row, 42);
            assert_eq!(a.column, 7);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_out_of_range() {
        let d = decoder(AddressMapping::RoBaRaCoCh);
        let _ = d.encode_bank_row(32, 0, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_org_rejected() {
        let cfg = SystemConfig {
            rows_per_bank: 100,
            ..SystemConfig::table6()
        };
        let _ = AddressDecoder::new(&cfg, AddressMapping::RoBaRaCoCh);
    }
}
