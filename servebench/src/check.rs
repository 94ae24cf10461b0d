//! The correctness oracle: every reply is compared with a serial
//! `Miner::mine` of the same request, rendered through the wire's own result
//! encoding. Comparisons happen outside the timed window, on 64-bit digests
//! of the encoded result documents.

use tdm_core::miner::SequentialBackend;
use tdm_core::{Alphabet, EventDb, Miner, MinerConfig};
use tdm_server::{json::Value, wire};

/// FNV-1a over the compact JSON text of a result document.
pub fn digest(result: &Value) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in result.encode().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the expected result document of mining `symbols` under
/// `config`: a serial `Miner::mine`, rendered as the wire renders results.
pub fn expected_digest(symbols: &[u8], config: &MinerConfig) -> u64 {
    let alphabet = Alphabet::latin26();
    let db =
        EventDb::new(alphabet.clone(), symbols.to_vec()).expect("generated symbols are latin26");
    let result = Miner::new(*config)
        .mine(&db, &mut SequentialBackend::default())
        .expect("the sequential reference cannot fail");
    digest(&wire::mining_result_value(&result, &alphabet))
}

/// Collects mismatches; any mismatch fails the run.
#[derive(Debug, Default)]
pub struct Verdict {
    checked: u64,
    mismatches: Vec<String>,
}

impl Verdict {
    /// Records one comparison of a reply digest against its expectation.
    pub fn compare(&mut self, what: impl FnOnce() -> String, got: u64, want: u64) {
        self.checked += 1;
        if got != want {
            self.mismatches.push(format!(
                "{}: reply digest {got:016x} != expected {want:016x}",
                what()
            ));
        }
    }

    /// Records a failed invariant or malformed reply.
    pub fn fail(&mut self, why: String) {
        self.mismatches.push(why);
    }

    pub fn checked(&self) -> u64 {
        self.checked
    }

    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    pub fn is_correct(&self) -> bool {
        self.mismatches.is_empty()
    }
}
