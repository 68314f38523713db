//! cgroups-like resource controllers (Table III).
//!
//! The real system caps a container's CPU via `cgroups cpuset`, memory via
//! `memory.limit_in_bytes`, and IO via `net_cls`. In the simulation, the
//! controller's observable effect is the *satisfaction fraction* each
//! running service receives, which the sensitivity model of
//! [`mlp_model::ResourceSensitivity`] turns into an execution-time penalty;
//! this module only names the knobs for Table III.

use mlp_model::ResourceKind;
use serde::{Deserialize, Serialize};

/// The control knob used per resource kind (Table III's right column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControllerTool {
    /// `cgroups cpuset` — CPU core pinning/sharing.
    CgroupsCpuset,
    /// `cgroups memory.limit_in_bytes` — memory cap.
    CgroupsMemoryLimit,
    /// `cgroups net_cls` — IO/network bandwidth class.
    CgroupsNetCls,
}

impl ControllerTool {
    /// The controller used for a resource kind, per Table III.
    pub fn for_kind(kind: ResourceKind) -> ControllerTool {
        match kind {
            ResourceKind::Cpu => ControllerTool::CgroupsCpuset,
            ResourceKind::Memory => ControllerTool::CgroupsMemoryLimit,
            ResourceKind::Io => ControllerTool::CgroupsNetCls,
        }
    }

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            ControllerTool::CgroupsCpuset => "cgroups cpuset",
            ControllerTool::CgroupsMemoryLimit => "cgroups memory.limit_in_bytes",
            ControllerTool::CgroupsNetCls => "cgroups net_cls",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_mapping() {
        assert_eq!(ControllerTool::for_kind(ResourceKind::Cpu).name(), "cgroups cpuset");
        assert_eq!(
            ControllerTool::for_kind(ResourceKind::Memory).name(),
            "cgroups memory.limit_in_bytes"
        );
        assert_eq!(ControllerTool::for_kind(ResourceKind::Io).name(), "cgroups net_cls");
    }
}
