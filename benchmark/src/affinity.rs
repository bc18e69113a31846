//! CPU placement: the daemon gets one core to itself, the harness the rest.
//!
//! Left to the scheduler on a two-core host, the daemon's reader and core
//! threads and the harness's sender and poller land on cores by luck, and
//! one saturate repeat ran anywhere from 175 k to 298 k events/s on the same
//! input (`aq_disorder_1q`, 24 repeats in a row). With the daemon pinned to
//! the first allowed core and the harness to the others, the same repeats
//! stay within ±5 %. The daemon's threads then share a core, so decode,
//! `session.push` and the shell add up instead of overlapping.
//!
//! Linux only, like the `/proc` reads elsewhere in the harness; `std` has no
//! affinity API, so this calls the C library `std` already links.

/// Words of a kernel CPU mask the harness passes: 1 024 CPUs.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn mask_of(cpus: &[usize]) -> Mask {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

fn set_current_thread(mask: &Mask) -> std::io::Result<()> {
    // SAFETY: `mask` points to `size_of::<Mask>()` readable bytes for the
    // duration of the call, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The cores this process may run on, ascending; empty if the kernel will
/// not say.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` points to `size_of::<Mask>()` writable bytes for the
    // duration of the call, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// How the allowed cores are split between the daemon and the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    all: Vec<usize>,
}

impl Placement {
    pub fn detect() -> Placement {
        Placement { all: allowed() }
    }

    /// The daemon's core; `None` on a one-core host, where nothing is
    /// pinned.
    pub fn server_cpu(&self) -> Option<usize> {
        (self.all.len() >= 2).then(|| self.all[0])
    }

    /// Keep the calling thread, and every thread it spawns from now on, off
    /// the daemon's core.
    pub fn pin_harness(&self) {
        if self.server_cpu().is_some() {
            Self::apply(&self.all[1..]);
        }
    }

    /// Give the calling thread every allowed core back (the isolated layer
    /// passes measure the library's own parallelism).
    pub fn unpin_harness(&self) {
        if self.server_cpu().is_some() {
            Self::apply(&self.all);
        }
    }

    /// Run `work` on the daemon's core, then return to the harness's. A
    /// child spawned meanwhile inherits the placement, and so does every
    /// thread it starts: that is how the daemon is pinned. (`pre_exec` would
    /// do it too, but makes `std` fork this process, hundreds of megabytes
    /// of input and reference mapped, instead of using `posix_spawn`: boots
    /// took 12 ms longer.) Also used between legs, when no daemon runs, to
    /// time the reference work where the daemon's work is timed: a
    /// neighbour of this virtual machine slows one core and not the other.
    pub fn on_server_cpu<T>(&self, work: impl FnOnce() -> T) -> T {
        let Some(cpu) = self.server_cpu() else {
            return work();
        };
        Self::apply(&[cpu]);
        let out = work();
        self.pin_harness();
        out
    }

    fn apply(cpus: &[usize]) {
        if let Err(e) = set_current_thread(&mask_of(cpus)) {
            eprintln!("quill-e2e: cannot set CPU affinity to {cpus:?}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_set_the_named_bits() {
        let m = mask_of(&[0, 3, 64, 1023, 5000]);
        assert_eq!(m[0], 0b1001);
        assert_eq!(m[1], 1);
        assert_eq!(m[15], 1 << 63);
    }

    #[test]
    fn a_child_spawned_on_the_server_core_stays_there() {
        let placement = Placement::detect();
        let Some(cpu) = placement.server_cpu() else {
            return; // one core: nothing is pinned
        };
        let status = placement.on_server_cpu(|| {
            std::process::Command::new("cat")
                .arg("/proc/self/status")
                .output()
        });
        let status = String::from_utf8(status.unwrap().stdout).unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("status lists allowed cores");
        assert_eq!(list.trim(), cpu.to_string());
        // ... and this thread is back on the harness's cores.
        assert_eq!(allowed(), placement.all[1..]);
    }

    #[test]
    fn one_core_hosts_pin_nothing() {
        assert_eq!(Placement { all: vec![3] }.server_cpu(), None);
        assert_eq!(Placement { all: vec![2, 5] }.server_cpu(), Some(2));
    }
}
