//! The CFI decrypt unit and SI verify unit: block-structured fetch.
//!
//! Mirrors the hardware of paper Fig. 1: ciphertext words come out of the
//! (encrypted) instruction memory, are decrypted with the control-flow
//! counter `{ω ‖ prevPC ‖ PC}`, and the SI unit recomputes the CBC-MAC
//! over the decrypted instructions, comparing it with the decrypted MAC
//! words before the block may execute.

use sofia_cpu::fetch::{Batch, FetchCtx, FetchUnit, Slot, SlotOutcome};
use sofia_cpu::Trap;
use sofia_crypto::ctr::{self, PC_BITS};
use sofia_crypto::{CounterBlock, ExpandedKeys, KeySet, Mac64, Nonce, Rectangle};
use sofia_isa::Instruction;
use sofia_transform::{BlockFormat, BlockKind, SecureImage, RESET_PREV_PC};

use crate::timing::SofiaTiming;
use crate::vcache::{CachedBlock, VCache, VCacheConfig, VCacheStats};
use crate::Violation;

/// Which entry a transfer target selected (paper §II-E call-site
/// convention: offset 0 → execution block; offset 4 → mux path 1;
/// offset 8 → mux path 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryPath {
    /// Execution-block entry at the block base.
    Exec,
    /// Multiplexor path 1: enter at `M1e1`, skip `M1e2`.
    Mux1,
    /// Multiplexor path 2: enter at `M1e2`.
    Mux2,
}

impl EntryPath {
    /// The block kind this path belongs to.
    pub fn kind(self) -> BlockKind {
        match self {
            EntryPath::Exec => BlockKind::Exec,
            EntryPath::Mux1 | EntryPath::Mux2 => BlockKind::Mux,
        }
    }
}

/// A successfully decrypted **and verified** block, ready to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedBlock {
    /// Base address of the block.
    pub base: u32,
    /// The entry path taken into it.
    pub path: EntryPath,
    /// Decrypted instruction words with their addresses (MAC slots are
    /// already stripped; they execute as `nop` slots in the timing model).
    pub insts: Vec<(u32, u32)>,
    /// Total words fetched (8 for exec, 7 for a mux path by default).
    pub words_fetched: u32,
    /// Addresses fetched, for I-cache accounting.
    pub fetched_addrs: Vec<u32>,
}

impl VerifiedBlock {
    /// Address of the last word of the block — the `prevPC` every exit
    /// edge of this block presents to its successor.
    pub fn last_word_addr(&self, format: &BlockFormat) -> u32 {
        self.base + format.block_bytes() - 4
    }
}

/// The fetch unit: classifies the transfer target, walks the word
/// sequence for the selected path, decrypts, and verifies.
///
/// `read_word` supplies ciphertext words by address (backed by the
/// machine's ROM so image tampering is visible to it). `enforce_si`
/// disables the MAC comparison for the CFI-only ablation (normal
/// operation passes `true`).
///
/// Every pad is computed here: this is the reference form of the fetch
/// path that [`SofiaFetchUnit`] runs with its sequential-edge table.
///
/// # Errors
///
/// Returns the [`Violation`] the hardware would reset on.
#[allow(clippy::too_many_arguments)]
pub fn fetch_block(
    read_word: &mut dyn FnMut(u32) -> Option<u32>,
    keys: &ExpandedKeys,
    nonce: Nonce,
    format: &BlockFormat,
    text_base: u32,
    text_words: u32,
    target: u32,
    prev_pc: u32,
    enforce_si: bool,
) -> Result<VerifiedBlock, Violation> {
    let mut insts = Vec::new();
    let fetched = FetchPath {
        keys,
        seq_pads: &[],
        nonce,
        format,
        text_base,
        text_words,
        enforce_si,
    }
    .fetch(read_word, target, prev_pc, &mut insts)?;
    Ok(fetched.into_verified(format, insts))
}

/// The keystream pads of every text word on its *sequential* edge: entry
/// `i` is the low 32 bits of `E_k1({ω ‖ a_i − 4 ‖ a_i})` for the word at
/// `a_i = text_base + 4·i`. Every fetched word but a block's entry word
/// is sealed on exactly that edge, so these pads depend on nothing but
/// the key, the nonce and the address, and one bulk pass computes them
/// all. Empty when some sequential edge of the text does not fit a
/// [`CounterBlock`]; the fetch path then computes every pad. Keystream
/// is as secret as the key, so `Debug` shows only the count.
#[derive(Clone)]
struct SequentialPads(Vec<u32>);

impl SequentialPads {
    fn new(ctr: &Rectangle, image: &SecureImage) -> SequentialPads {
        let text_end = u64::from(image.text_base) + 4 * image.ctext.len() as u64;
        if image.text_base % 4 != 0 || image.text_base < 4 || text_end > 4 << PC_BITS {
            return SequentialPads(Vec::new());
        }
        let counters: Vec<CounterBlock> = (0..image.ctext.len() as u32)
            .map(|i| {
                let pc = image.text_base + 4 * i;
                CounterBlock::from_edge(image.nonce, pc - 4, pc)
            })
            .collect();
        SequentialPads(ctr::pads(ctr, &counters))
    }
}

impl std::fmt::Debug for SequentialPads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SequentialPads(<{} pads redacted>)", self.0.len())
    }
}

/// The fixed inputs of one image's fetch path: keys, geometry and the
/// sequential-edge pads (which may be empty).
struct FetchPath<'a> {
    keys: &'a ExpandedKeys,
    seq_pads: &'a [u32],
    nonce: Nonce,
    format: &'a BlockFormat,
    text_base: u32,
    text_words: u32,
    enforce_si: bool,
}

impl FetchPath<'_> {
    /// The pad for the word at `pc` reached from `prev`: from the table
    /// when the edge is sequential and the table covers `pc`, else one
    /// scalar cipher call.
    fn pad(&self, prev: u32, pc: u32) -> u32 {
        if prev.wrapping_add(4) == pc {
            let word = pc.wrapping_sub(self.text_base) / 4;
            if let Some(&pad) = self.seq_pads.get(word as usize) {
                return pad;
            }
        }
        ctr::pad(
            &self.keys.ctr,
            CounterBlock::from_edge(self.nonce, prev, pc),
        )
    }

    /// Classifies `target`, decrypts the selected path into `insts`
    /// (cleared first; MAC words stripped) and verifies the block's
    /// CBC-MAC.
    fn fetch(
        &self,
        read_word: &mut dyn FnMut(u32) -> Option<u32>,
        target: u32,
        prev_pc: u32,
        insts: &mut Vec<(u32, u32)>,
    ) -> Result<Fetched, Violation> {
        let bb = self.format.block_bytes();
        let text_end = self.text_base + self.text_words * 4;
        if target < self.text_base || target >= text_end || target % 4 != 0 {
            return Err(Violation::FetchOutOfImage { addr: target });
        }
        let off = (target - self.text_base) % bb;
        let base = target - off;
        let path = match off {
            0 => EntryPath::Exec,
            4 => EntryPath::Mux1,
            8 => EntryPath::Mux2,
            _ => return Err(Violation::InvalidEntryOffset { target }),
        };
        // An exec-offset target is also how sequential fall-through arrives
        // at a mux block — the transformer guarantees that never happens
        // for honest programs; for tampered flow the MAC check below
        // catches it.
        let fetched = Fetched {
            base,
            path,
            prev_pc,
        };

        // Only the entry edge carries a runtime `prevPC`; every later
        // edge of the walk is sequential, so a fetch makes at most one
        // cipher call for its keystream (none on fall-through).
        let (mut m1, mut m2) = (0u32, 0u32);
        insts.clear();
        for (i, (prev, pc)) in fetched.edges(self.format).enumerate() {
            let pad = self.pad(prev, pc);
            let c = read_word(pc).ok_or(Violation::FetchOutOfImage { addr: pc })?;
            let word = c ^ pad;
            match i {
                0 => m1 = word,
                1 => m2 = word,
                _ => insts.push((pc, word)),
            }
        }

        // SI verification (paper Fig. 3). The CBC chain absorbs the
        // decrypted words in place, pair by pair with the last pair
        // zero-padded: `mac::mac_words` over the padded domain, without
        // copying the words out of `insts`.
        let kind = path.kind();
        let mac_cipher = match kind {
            BlockKind::Exec => &self.keys.mac_exec,
            BlockKind::Mux => &self.keys.mac_mux,
        };
        debug_assert_eq!(
            insts.len().div_ceil(2) * 2,
            self.format.mac_padded_words(kind)
        );
        let computed = Mac64::new(insts.chunks(2).fold(0, |state, pair| {
            let hi = pair.get(1).map_or(0, |&(_, w)| w);
            mac_cipher.encrypt_block(state ^ (u64::from(pair[0].1) | u64::from(hi) << 32))
        }));
        if self.enforce_si && computed != Mac64::from_words(m1, m2) {
            return Err(Violation::MacMismatch { block_base: base });
        }
        Ok(fetched)
    }
}

/// Where a fetch landed: the block, the path into it and the `prevPC`
/// it arrived with — which, with the block format, fixes every word the
/// fetch reads and the edge each was sealed on.
#[derive(Clone, Copy, Debug)]
struct Fetched {
    base: u32,
    path: EntryPath,
    prev_pc: u32,
}

impl Fetched {
    /// The `(sealing prevPC, PC)` edge of every word the path fetches, in
    /// order. The first two decrypt the MAC words (M1/M2), the rest the
    /// instruction words. Mux paths skip the other entry's M1 word and
    /// chain M2 from addr(M1e2) on *both* paths (Fig. 8).
    fn edges(self, format: &BlockFormat) -> impl Iterator<Item = (u32, u32)> {
        let word_at = move |w: usize| self.base + 4 * w as u32;
        let entry = match self.path {
            EntryPath::Exec => [(self.prev_pc, word_at(0)), (word_at(0), word_at(1))],
            EntryPath::Mux1 => [(self.prev_pc, word_at(0)), (word_at(1), word_at(2))],
            EntryPath::Mux2 => [(self.prev_pc, word_at(1)), (word_at(1), word_at(2))],
        };
        let first_inst_word = format.mac_words(self.path.kind());
        entry.into_iter().chain(
            (first_inst_word..format.block_words()).map(move |w| (word_at(w - 1), word_at(w))),
        )
    }

    /// Words the path fetches: both MAC words it decrypts plus the
    /// instruction words.
    fn words_fetched(self, format: &BlockFormat) -> u32 {
        (2 + format.block_words() - format.mac_words(self.path.kind())) as u32
    }

    fn last_word_addr(self, format: &BlockFormat) -> u32 {
        self.base + format.block_bytes() - 4
    }

    fn into_verified(self, format: &BlockFormat, insts: Vec<(u32, u32)>) -> VerifiedBlock {
        VerifiedBlock {
            base: self.base,
            path: self.path,
            insts,
            words_fetched: self.words_fetched(format),
            fetched_addrs: self.edges(format).map(|(_, pc)| pc).collect(),
        }
    }
}

/// Why a cached edge from a snapshot could not re-earn its cache line
/// during restore (see [`SofiaFetchUnit::reverify_line`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineRejection {
    /// The full fetch path raised a violation for this edge.
    Violation(Violation),
    /// A decrypted word no longer decodes (it would have trapped on the
    /// live path, so it can never have been cached honestly).
    Undecodable {
        /// Address of the undecodable word.
        pc: u32,
        /// The undecodable word itself (the live path's trap payload).
        word: u32,
    },
}

/// Decodes the instruction words of a verified block of `kind` into
/// slots, enforcing the store-position rule before any architectural
/// effect — the **single** implementation shared by the live fetch path
/// ([`SofiaFetchUnit::fetch_batch`]) and snapshot-restore
/// re-verification ([`SofiaFetchUnit::reverify_line`]), so the two can
/// never diverge on what a verified block is allowed to contain.
///
/// # Errors
///
/// [`LineRejection`] naming the offending word; callers map it to
/// their surface ([`Trap::IllegalInstruction`] / [`Violation`] on the
/// live path, a restore error on the snapshot path).
fn decode_block_slots(
    format: &BlockFormat,
    kind: BlockKind,
    insts: &[(u32, u32)],
    mut sink: impl FnMut(Slot),
) -> Result<(), LineRejection> {
    let first_word = format.mac_words(kind);
    for (idx, &(pc, word)) in insts.iter().enumerate() {
        let inst = Instruction::decode(word)
            .map_err(|e| LineRejection::Undecodable { pc, word: e.word() })?;
        let word_pos = first_word + idx;
        if inst.is_store() && word_pos < format.store_safe_word_offset {
            return Err(LineRejection::Violation(Violation::StoreTooEarly {
                pc,
                word_pos,
            }));
        }
        sink(Slot { pc, inst });
    }
    Ok(())
}

/// Counters specific to the SOFIA fetch path, accumulated by
/// [`SofiaFetchUnit`] on top of the engine's baseline
/// [`sofia_cpu::ExecStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchPathStats {
    /// Blocks fetched and verified.
    pub blocks: u64,
    /// Execution blocks among them.
    pub exec_blocks: u64,
    /// Multiplexor blocks among them.
    pub mux_blocks: u64,
    /// MAC words that travelled the pipeline as `nop` slots.
    pub mac_nop_slots: u64,
    /// CTR operations issued by the cipher.
    pub ctr_ops: u64,
    /// CBC-MAC operations issued by the cipher.
    pub cbc_ops: u64,
    /// Stall cycles from cipher backpressure.
    pub cipher_stall_cycles: u64,
    /// Decrypt-pipeline refill cycles after redirects.
    pub redirect_fill_cycles: u64,
    /// Stall cycles inserted by the store gate.
    pub store_gate_stall_cycles: u64,
    /// Verified-block cache hits (fetches that skipped decrypt + MAC).
    pub vcache_hits: u64,
    /// Verified-block cache misses (fetches through the full path while
    /// the cache was enabled).
    pub vcache_misses: u64,
    /// Verified lines evicted from the cache.
    pub vcache_evictions: u64,
    /// Fetch-path cycles (issue slots for MAC words, cipher stalls,
    /// redirect refills) the verified-block cache saved on hits, net of
    /// the hit latency it charged instead.
    pub crypto_cycles_saved: u64,
}

/// The SOFIA fetch unit: the CFI decrypt unit, the SI verify unit and the
/// block sequencer, packaged as a [`FetchUnit`] for the generic
/// [`sofia_cpu::Pipeline`] engine.
///
/// Owns all the security state of paper Fig. 1 — keys, nonce, block
/// format, the `{prevPC, PC}` edge registers — plus the fetch-path timing
/// model. The engine drives it exactly like [`sofia_cpu::PlainFetch`],
/// which is what makes vanilla-vs-SOFIA comparisons a controlled
/// experiment.
#[derive(Clone, Debug)]
pub struct SofiaFetchUnit {
    keys: ExpandedKeys,
    /// Built once here, never stored in the image or a snapshot.
    seq_pads: SequentialPads,
    nonce: Nonce,
    format: BlockFormat,
    timing: SofiaTiming,
    enforce_si: bool,
    text_base: u32,
    text_words: u32,
    entry: u32,
    next_target: u32,
    prev_pc: u32,
    redirected: bool,
    cur_base: u32,
    cur_last_word: u32,
    stats: FetchPathStats,
    vcache: VCache,
    /// The last uncached fetch's decrypted instruction words, kept so a
    /// refill reuses the allocation.
    insts: Vec<(u32, u32)>,
}

impl SofiaFetchUnit {
    /// A unit fetching `image` under `keys`, with `enforce_si = false`
    /// yielding the CFI-only ablation (§II-A: decryption alone cannot
    /// detect its own errors). The verified-block cache is disabled —
    /// use [`SofiaFetchUnit::with_vcache`] to enable it.
    pub fn new(image: &SecureImage, keys: &KeySet, timing: SofiaTiming, enforce_si: bool) -> Self {
        Self::with_vcache(image, keys, timing, enforce_si, VCacheConfig::default())
    }

    /// A unit with an explicit verified-block cache configuration (see
    /// [`crate::vcache`]; a disabled config reproduces [`SofiaFetchUnit::new`]
    /// bit-for-bit).
    pub fn with_vcache(
        image: &SecureImage,
        keys: &KeySet,
        timing: SofiaTiming,
        enforce_si: bool,
        vcache: VCacheConfig,
    ) -> Self {
        let keys = keys.expand();
        SofiaFetchUnit {
            seq_pads: SequentialPads::new(&keys.ctr, image),
            keys,
            nonce: image.nonce,
            format: image.format,
            timing,
            enforce_si,
            text_base: image.text_base,
            text_words: image.ctext.len() as u32,
            entry: image.entry,
            next_target: image.entry,
            prev_pc: RESET_PREV_PC,
            redirected: true,
            cur_base: image.entry,
            cur_last_word: RESET_PREV_PC,
            stats: FetchPathStats::default(),
            vcache: VCache::new(vcache),
            insts: Vec::new(),
        }
    }

    /// Fetch-path counters, including the verified-block cache's.
    pub fn stats(&self) -> FetchPathStats {
        self.stats
    }

    /// Raw verified-block cache counters.
    pub fn vcache_stats(&self) -> VCacheStats {
        self.vcache.stats()
    }

    /// The next transfer target (diagnostic).
    pub fn next_target(&self) -> u32 {
        self.next_target
    }

    /// The `prevPC` the hardware will present for the next fetch — the
    /// sealed-edge source (diagnostic; lets harnesses re-verify an edge
    /// out-of-band with [`fetch_block`]).
    pub fn prev_pc(&self) -> u32 {
        self.prev_pc
    }

    /// **Attack-harness channel**: redirects the next fetch to `target`,
    /// modelling a control-flow hijack the software could not prevent.
    pub fn hijack(&mut self, target: u32) {
        self.next_target = target;
        self.redirected = true;
    }

    /// The fetch-path timing model this unit charges.
    pub(crate) fn timing(&self) -> SofiaTiming {
        self.timing
    }

    /// Whether the SI unit's MAC comparison is enforced.
    pub(crate) fn enforce_si(&self) -> bool {
        self.enforce_si
    }

    /// Sequencer state beyond the edge registers: `(redirected,
    /// cur_base, cur_last_word)` — what a snapshot must carry so the
    /// first resumed fetch charges the same redirect refill and the
    /// resumed block retires onto the same exit `prevPC`.
    pub(crate) fn sequencing(&self) -> (bool, u32, u32) {
        (self.redirected, self.cur_base, self.cur_last_word)
    }

    /// Restores the sequencing registers wholesale (snapshot restore).
    pub(crate) fn restore_sequencing(
        &mut self,
        prev_pc: u32,
        next_target: u32,
        redirected: bool,
        cur_base: u32,
        cur_last_word: u32,
    ) {
        self.prev_pc = prev_pc;
        self.next_target = next_target;
        self.redirected = redirected;
        self.cur_base = cur_base;
        self.cur_last_word = cur_last_word;
    }

    /// Replaces the fetch-path counters wholesale (snapshot restore).
    pub(crate) fn set_stats(&mut self, stats: FetchPathStats) {
        self.stats = stats;
    }

    /// The verified-block cache (snapshot export).
    pub(crate) fn vcache_ref(&self) -> &VCache {
        &self.vcache
    }

    /// Mutable verified-block cache (snapshot restore).
    pub(crate) fn vcache_mut(&mut self) -> &mut VCache {
        &mut self.vcache
    }

    /// Re-runs the full decrypt → MAC-verify → decode → store-rule path
    /// for one cached edge against `read_word` ciphertext, producing the
    /// cache line a hit would replay. This is how a restored snapshot
    /// re-warms the verified-block cache: the snapshot carries only edge
    /// *keys*, never decrypted plaintext, so every line re-earns its
    /// residency against the MAC-protected image on the restoring host.
    ///
    /// # Errors
    ///
    /// The violation (or the undecodable word's address) that would have
    /// fired on the live fetch path.
    pub(crate) fn reverify_line(
        &self,
        read_word: &mut dyn FnMut(u32) -> Option<u32>,
        prev_pc: u32,
        target: u32,
    ) -> Result<CachedBlock, LineRejection> {
        let mut insts = Vec::new();
        let fetched = self
            .fetch_path()
            .fetch(read_word, target, prev_pc, &mut insts)
            .map_err(LineRejection::Violation)?;
        let kind = fetched.path.kind();
        let mut slots: Vec<Slot> = Vec::with_capacity(insts.len());
        decode_block_slots(&self.format, kind, &insts, |slot| slots.push(slot))?;
        Ok(CachedBlock {
            base: fetched.base,
            last_word_addr: fetched.last_word_addr(&self.format),
            kind,
            words_fetched: fetched.words_fetched(&self.format),
            slots: slots.into(),
        })
    }

    /// This unit's fetch path: its keys, geometry and sequential-edge
    /// table.
    fn fetch_path(&self) -> FetchPath<'_> {
        FetchPath {
            keys: &self.keys,
            seq_pads: &self.seq_pads.0,
            nonce: self.nonce,
            format: &self.format,
            text_base: self.text_base,
            text_words: self.text_words,
            enforce_si: self.enforce_si,
        }
    }

    /// One uncached fetch of `(prev_pc, target)` through
    /// [`SofiaFetchUnit::fetch_path`], decrypting into the unit's reusable
    /// `insts` buffer.
    fn refill(
        &mut self,
        read_word: &mut dyn FnMut(u32) -> Option<u32>,
        target: u32,
        prev_pc: u32,
    ) -> Result<Fetched, Violation> {
        let mut insts = std::mem::take(&mut self.insts);
        let fetched = self
            .fetch_path()
            .fetch(read_word, target, prev_pc, &mut insts);
        self.insts = insts;
        fetched
    }

    fn account_block(&mut self, fetched: Fetched, slots: &[Slot], ctx: &mut FetchCtx<'_>) {
        let kind = fetched.path.kind();
        let words_fetched = fetched.words_fetched(&self.format);
        let bt = self
            .timing
            .block_cycles(&self.format, kind, words_fetched, self.redirected);
        self.stats.blocks += 1;
        match kind {
            BlockKind::Exec => self.stats.exec_blocks += 1,
            BlockKind::Mux => self.stats.mux_blocks += 1,
        }
        self.stats.mac_nop_slots += (words_fetched as usize - slots.len()) as u64;
        self.stats.ctr_ops += bt.ctr_ops as u64;
        self.stats.cbc_ops += bt.cbc_ops as u64;
        self.stats.cipher_stall_cycles += bt.cipher_stall as u64;
        self.stats.redirect_fill_cycles += bt.redirect_fill as u64;
        ctx.stats.cycles += bt.total() as u64;
        // Store-gate stalls for stores the format allows in the stall
        // window (zero under the default format — the Fig. 6 argument).
        let first_word = self.format.mac_words(kind);
        for (idx, slot) in slots.iter().enumerate() {
            if slot.inst.is_store() {
                let stall = self.timing.store_gate_stall(&self.format, first_word + idx) as u64;
                self.stats.store_gate_stall_cycles += stall;
                ctx.stats.cycles += stall;
            }
        }
        // I-cache: ciphertext words are cached in front of the decrypt
        // unit (Fig. 1), so every fetched word touches the cache.
        for (_, addr) in fetched.edges(&self.format) {
            let stall = ctx.icache.access_cycles(addr) as u64;
            ctx.stats.icache_stall_cycles += stall;
            ctx.stats.cycles += stall;
        }
    }

    /// Accounting for a verified-block cache hit: the plaintext slots
    /// stream straight from the cache, so the block charges its issue
    /// slots plus the hit latency — no cipher ops, no redirect refill,
    /// and **no ciphertext I-cache walk** (the ciphertext is never read,
    /// so charging `ICache::access_cycles` here would double-bill the
    /// fetch; see the regression test pinning this).
    fn account_hit(
        &mut self,
        kind: BlockKind,
        words_fetched: u32,
        slots: usize,
        ctx: &mut FetchCtx<'_>,
    ) {
        self.stats.vcache_hits += 1;
        self.stats.blocks += 1;
        match kind {
            BlockKind::Exec => self.stats.exec_blocks += 1,
            BlockKind::Mux => self.stats.mux_blocks += 1,
        }
        let skipped = self
            .timing
            .block_cycles(&self.format, kind, words_fetched, self.redirected);
        let hit_cycles = slots as u32 + self.vcache.config().hit_latency;
        ctx.stats.cycles += hit_cycles as u64;
        self.stats.crypto_cycles_saved += skipped.total().saturating_sub(hit_cycles) as u64;
    }
}

impl FetchUnit for SofiaFetchUnit {
    type Violation = Violation;

    /// Block fetch charges one issue slot per fetched word (MAC words
    /// travel as `nop`s), so the engine adds only hazard penalties.
    const ISSUE_CHARGED_IN_FETCH: bool = true;

    fn fetch_batch(
        &mut self,
        ctx: &mut FetchCtx<'_>,
        out: &mut Batch,
    ) -> Result<Option<Violation>, Trap> {
        // Verified-block cache: a hit replays slots already decrypted,
        // MAC-checked and decoded for exactly this `(prevPC, PC)` edge —
        // delivered zero-copy: the engine executes straight from the
        // cache line's shared slice, no per-hit clone.
        let edge = (self.prev_pc, self.next_target);
        if let Some(cached) = self.vcache.lookup(edge.0, edge.1) {
            let (base, last, kind, words) = (
                cached.base,
                cached.last_word_addr,
                cached.kind,
                cached.words_fetched,
            );
            out.deliver_shared(std::sync::Arc::clone(&cached.slots));
            self.account_hit(kind, words, out.len(), ctx);
            self.cur_base = base;
            self.cur_last_word = last;
            return Ok(None);
        } else if self.vcache.is_enabled() {
            self.stats.vcache_misses += 1;
        }
        let fetched = match self.refill(
            &mut |addr| ctx.mem.fetch(addr).ok(),
            self.next_target,
            self.prev_pc,
        ) {
            Ok(f) => f,
            Err(v) => return Ok(Some(v)),
        };
        // Decode everything up front; check the store-position rule before
        // any architectural effect (the hardware's early-store reset).
        let kind = fetched.path.kind();
        match decode_block_slots(&self.format, kind, &self.insts, |slot| out.push(slot)) {
            Ok(()) => {}
            Err(LineRejection::Undecodable { pc, word }) => {
                return Err(Trap::IllegalInstruction { word, pc })
            }
            Err(LineRejection::Violation(v)) => return Ok(Some(v)),
        }
        self.account_block(fetched, out.as_slice(), ctx);
        self.cur_base = fetched.base;
        self.cur_last_word = fetched.last_word_addr(&self.format);
        // Only now — past the MAC, the decoder and the store-position
        // rule — may the block enter the cache: nothing that would trap
        // or violate on the uncached path is ever replayable from it.
        if self.vcache.is_enabled() {
            let evicted = self.vcache.insert(
                edge,
                CachedBlock {
                    base: fetched.base,
                    last_word_addr: self.cur_last_word,
                    kind,
                    words_fetched: fetched.words_fetched(&self.format),
                    slots: out.to_shared(),
                },
            );
            self.stats.vcache_evictions += evicted as u64;
        }
        Ok(None)
    }

    fn retire(
        &mut self,
        pc: u32,
        slot: usize,
        batch_len: usize,
        outcome: SlotOutcome,
    ) -> Result<(), Violation> {
        let last = slot + 1 == batch_len;
        match outcome {
            SlotOutcome::Sequential => {
                if last {
                    self.next_target = self.cur_base + self.format.block_bytes();
                    self.prev_pc = self.cur_last_word;
                    self.redirected = false;
                }
            }
            SlotOutcome::Transfer { target } => {
                if !last {
                    return Err(Violation::MidBlockTransfer { pc });
                }
                self.next_target = target;
                self.prev_pc = self.cur_last_word;
                self.redirected = true;
            }
        }
        Ok(())
    }

    fn on_reset(&mut self) -> u64 {
        self.prev_pc = RESET_PREV_PC;
        self.next_target = self.entry;
        self.redirected = true;
        // A reboot restores a safe control state: stale verified
        // plaintext must not survive the reset line any more than the
        // ciphertext I-cache does.
        self.vcache.flush();
        self.timing.reboot_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofia_isa::asm;
    use sofia_transform::Transformer;

    fn image(src: &str) -> (sofia_transform::SecureImage, KeySet) {
        let keys = KeySet::from_seed(0xF00D);
        let img = Transformer::new(keys.clone())
            .transform(&asm::parse(src).unwrap())
            .unwrap();
        (img, keys)
    }

    fn fetch(
        img: &sofia_transform::SecureImage,
        keys: &KeySet,
        target: u32,
        prev: u32,
    ) -> Result<VerifiedBlock, Violation> {
        let ks = keys.expand();
        let ctext = img.ctext.clone();
        let base = img.text_base;
        let mut read = |addr: u32| ctext.get(((addr - base) / 4) as usize).copied();
        fetch_block(
            &mut read,
            &ks,
            img.nonce,
            &img.format,
            img.text_base,
            img.ctext.len() as u32,
            target,
            prev,
            true,
        )
    }

    #[test]
    fn entry_block_verifies_from_reset() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let b = fetch(&img, &keys, img.entry, RESET_PREV_PC).unwrap();
        assert_eq!(b.path, EntryPath::Exec);
        assert_eq!(b.words_fetched, 8);
        assert_eq!(b.insts.len(), 6);
    }

    #[test]
    fn wrong_prev_pc_is_a_mac_mismatch() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let err = fetch(&img, &keys, img.entry, 0x5C).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn illegal_entry_offsets_rejected() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let err = fetch(&img, &keys, img.text_base + 12, RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::InvalidEntryOffset { .. }));
        let err = fetch(&img, &keys, img.text_base.wrapping_sub(32), RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::FetchOutOfImage { .. }));
    }

    #[test]
    fn tampered_word_fails_verification() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let mut tampered = img.clone();
        tampered.ctext[3] ^= 0x0000_0400; // flip one ciphertext bit
        let err = fetch(&tampered, &keys, img.entry, RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn mux_paths_both_verify() {
        // Callee with two callers → mux block, both entries must verify
        // with their respective prevPCs.
        let (img, keys) = image(
            "main: jal f
                   jal f
                   halt
             f:    ret",
        );
        // Find the two jal instructions in the clear by scanning blocks:
        // simpler — walk the program like the machine would. Block 0 ends
        // with the first jal at its last word.
        let bb = img.format.block_bytes();
        let jal1 = img.text_base + bb - 4;
        let b0 = fetch(&img, &keys, img.entry, RESET_PREV_PC).unwrap();
        assert_eq!(b0.path, EntryPath::Exec);
        let jal_inst = sofia_isa::Instruction::decode(b0.insts.last().unwrap().1).unwrap();
        let f_entry = jal_inst.static_target(jal1).unwrap();
        // f's entry is a mux path (offset 4 or 8).
        let off = (f_entry - img.text_base) % bb;
        assert!(off == 4 || off == 8, "offset {off}");
        let fb = fetch(&img, &keys, f_entry, jal1).unwrap();
        assert_eq!(fb.path.kind(), BlockKind::Mux);
        assert_eq!(fb.words_fetched, 7);
        assert_eq!(fb.insts.len(), 5);
        // Entering the same path with the *other* caller's prevPC fails.
        let err = fetch(&img, &keys, f_entry, jal1 + bb).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn relocating_a_block_fails_verification() {
        // The ECB-ISR weakness SOFIA fixes (paper §I): moving ciphertext
        // to another location must not decrypt correctly, because PC is in
        // the counter.
        let (img, keys) = image(
            "main: addi t0, zero, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   addi t0, t0, 1
                   halt",
        );
        assert!(img.blocks() >= 2);
        let mut moved = img.clone();
        let bw = img.format.block_words();
        // Swap block 0 and block 1 ciphertexts wholesale.
        for w in 0..bw {
            moved.ctext.swap(w, bw + w);
        }
        let err = fetch(&moved, &keys, img.entry, RESET_PREV_PC).unwrap_err();
        assert!(matches!(err, Violation::MacMismatch { .. }));
    }

    #[test]
    fn unit_debug_redacts_the_pad_table() {
        let (img, keys) = image("main: addi t0, zero, 9\n halt");
        let unit = SofiaFetchUnit::new(&img, &keys, SofiaTiming::default(), true);
        let dbg = format!("{unit:?}");
        let n = img.ctext.len();
        assert!(dbg.contains(&format!("SequentialPads(<{n} pads redacted>)")));
        let leaked = unit.seq_pads.0.iter().any(|p| dbg.contains(&p.to_string()));
        assert!(!leaked, "a pad appears in the unit's Debug output");
    }

    /// The fetch path written out word by word, every pad through
    /// [`ctr::pad`] and the MAC through [`sofia_crypto::mac::mac_words`]:
    /// the reference the unit's table-backed fetch must match exactly.
    fn reference_fetch(
        img: &SecureImage,
        keys: &ExpandedKeys,
        ctext: &[u32],
        target: u32,
        prev_pc: u32,
    ) -> Result<VerifiedBlock, Violation> {
        let format = img.format;
        let bb = format.block_bytes();
        let text_end = img.text_base + 4 * ctext.len() as u32;
        if target < img.text_base || target >= text_end || target % 4 != 0 {
            return Err(Violation::FetchOutOfImage { addr: target });
        }
        let base = target - (target - img.text_base) % bb;
        let (path, mut words, first_edge) = match target - base {
            0 => (EntryPath::Exec, vec![0, 1], (prev_pc, base)),
            4 => (EntryPath::Mux1, vec![0, 2], (prev_pc, base)),
            8 => (EntryPath::Mux2, vec![1, 2], (prev_pc, base + 4)),
            _ => return Err(Violation::InvalidEntryOffset { target }),
        };
        words.extend(format.mac_words(path.kind())..format.block_words());
        let mut plain = Vec::new();
        let mut fetched_addrs = Vec::new();
        for (i, &w) in words.iter().enumerate() {
            let pc = base + 4 * w as u32;
            // M2 is sealed on the edge from addr(M1e2) on both mux paths.
            let prev = if i == 0 { first_edge.0 } else { pc - 4 };
            let c = ctext
                .get(((pc - img.text_base) / 4) as usize)
                .copied()
                .ok_or(Violation::FetchOutOfImage { addr: pc })?;
            plain.push(ctr::apply(
                &keys.ctr,
                CounterBlock::from_edge(img.nonce, prev, pc),
                c,
            ));
            fetched_addrs.push(pc);
        }
        let kind = path.kind();
        let mac_key = match kind {
            BlockKind::Exec => &keys.mac_exec,
            BlockKind::Mux => &keys.mac_mux,
        };
        let computed =
            sofia_crypto::mac::mac_words(mac_key, &plain[2..], format.mac_padded_words(kind));
        if computed != Mac64::from_words(plain[0], plain[1]) {
            return Err(Violation::MacMismatch { block_base: base });
        }
        Ok(VerifiedBlock {
            base,
            path,
            insts: fetched_addrs[2..]
                .iter()
                .copied()
                .zip(plain[2..].iter().copied())
                .collect(),
            words_fetched: words.len() as u32,
            fetched_addrs,
        })
    }

    /// A program with loops, fall-through and a thrice-called leaf, so
    /// every format seals exec blocks and both mux paths.
    const EQUIV_SRC: &str = "main: li t0, 3
                   li t1, 0
             loop: jal f
                   subi t0, t0, 1
                   bnez t0, loop
                   addi t1, t1, 7
                   addi t1, t1, 7
                   addi t1, t1, 7
                   addi t1, t1, 7
                   addi t1, t1, 7
                   addi t1, t1, 7
                   addi t1, t1, 7
                   jal f
                   jal f
                   li a0, 0xFFFF0000
                   sw t1, 0(a0)
                   halt
             f:    addi t1, t1, 1
                   ret";

    /// One sealed image per format with the honest `(prevPC, target)`
    /// edges a run takes, reset entry first.
    struct Sealed {
        img: SecureImage,
        keys: KeySet,
        edges: Vec<(u32, u32)>,
    }

    fn sealed(format: BlockFormat) -> Sealed {
        let keys = KeySet::from_seed(0xE9);
        let img = Transformer::new(keys.clone())
            .with_format(format)
            .transform(&asm::parse(EQUIV_SRC).unwrap())
            .unwrap();
        let mut m = crate::machine::SofiaMachine::new(&img, &keys);
        let mut edges = Vec::new();
        while !m.is_halted() {
            edges.push((m.prev_pc(), m.next_target()));
            assert!(m.step_block().unwrap().violation.is_none());
        }
        Sealed { img, keys, edges }
    }

    /// Default, exec4, and a block far wider than either.
    fn equiv_images() -> &'static [Sealed] {
        static IMAGES: std::sync::OnceLock<Vec<Sealed>> = std::sync::OnceLock::new();
        IMAGES.get_or_init(|| {
            let wide = BlockFormat {
                exec_insts: 30,
                ..BlockFormat::default()
            };
            [BlockFormat::default(), BlockFormat::exec4(), wide]
                .into_iter()
                .map(sealed)
                .collect()
        })
    }

    #[test]
    fn equivalence_corpus_covers_every_path_and_edge_kind() {
        for s in equiv_images() {
            let bb = s.img.format.block_bytes();
            let offsets: Vec<u32> = s
                .edges
                .iter()
                .map(|&(_, t)| (t - s.img.text_base) % bb)
                .collect();
            for off in [0, 4, 8] {
                assert!(
                    offsets.contains(&off),
                    "{:?}: no entry at offset {off}",
                    s.img.format
                );
            }
            assert_eq!(s.edges[0], (RESET_PREV_PC, s.img.entry));
            assert!(s.edges.iter().any(|&(p, t)| p + 4 == t), "no fall-through");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The unit's fetch (sequential pads from its table, at most one
        /// scalar pad per fetch) returns exactly the reference's result —
        /// words, MAC verdict and violation kind — on honest edges,
        /// hijacked `prevPC`s, arbitrary targets and flipped ciphertext.
        #[test]
        fn table_fetch_matches_reference(
            image in 0usize..3,
            edge in proptest::prelude::any::<usize>(),
            mutation in 0u32..5,
            r in proptest::prelude::any::<u32>(),
            bit in 0u32..32,
        ) {
            let s = &equiv_images()[image];
            let img = &s.img;
            let text_bytes = 4 * img.ctext.len() as u32;
            let (mut prev, mut target) = s.edges[edge % s.edges.len()];
            let mut ctext = img.ctext.clone();
            match mutation {
                0 => {}
                // Hijacked `prevPC`: a word next to the target, or any word
                // of the text or just past it.
                1 if r % 2 == 0 => prev = (target + 4 * (r / 2 % 5)).saturating_sub(8),
                1 => prev = img.text_base + 4 * (r % (img.ctext.len() as u32 + 4)),
                // Any aligned target in the text: every entry offset.
                2 => target = img.text_base + 4 * (r % img.ctext.len() as u32),
                // Out of image: below, past the end, or unaligned.
                3 => {
                    target = match r % 3 {
                        0 => img.text_base.wrapping_sub(4 * (1 + r % 64)),
                        1 => img.text_base + text_bytes + 4 * (r % 64),
                        _ => (img.text_base + r % text_bytes) | (1 << (r % 2)),
                    }
                }
                // One flipped ciphertext bit in the fetched block.
                _ => {
                    let base = (target - img.text_base) / 4;
                    let w = base as usize - base as usize % img.format.block_words()
                        + r as usize % img.format.block_words();
                    ctext[w] ^= 1 << bit;
                }
            }
            let keys = s.keys.expand();
            let expect = reference_fetch(img, &keys, &ctext, target, prev);
            let mut unit = SofiaFetchUnit::new(img, &s.keys, SofiaTiming::default(), true);
            let base = img.text_base;
            let mut read = |addr: u32| ctext.get(((addr - base) / 4) as usize).copied();
            let got = match unit.refill(&mut read, target, prev) {
                Ok(f) => {
                    // Only the entry edge may need a cipher call.
                    proptest::prop_assert!(f.edges(&img.format).skip(1).all(|(p, pc)| p + 4 == pc));
                    Ok(f.into_verified(&img.format, unit.insts.clone()))
                }
                Err(v) => Err(v),
            };
            proptest::prop_assert_eq!(&got, &expect);
            // The public, table-free entry point agrees too.
            let public = fetch_block(
                &mut read, &keys, img.nonce, &img.format, img.text_base,
                img.ctext.len() as u32, target, prev, true,
            );
            proptest::prop_assert_eq!(public, expect);
        }
    }
}
