#include "exec/plan.h"

#include <utility>

namespace fsjoin::exec {

Plan& Plan::FlatMap(std::string stage_name, mr::MapperFactory factory) {
  Stage stage;
  stage.kind = Stage::Kind::kFlatMap;
  stage.name = std::move(stage_name);
  stage.mapper = std::move(factory);
  stages_.push_back(std::move(stage));
  return *this;
}

Plan& Plan::GroupByKey(std::string stage_name, mr::ReducerFactory factory,
                       std::shared_ptr<const mr::Partitioner> partitioner,
                       StageHints hints) {
  Stage stage;
  stage.kind = Stage::Kind::kGroupByKey;
  stage.name = std::move(stage_name);
  stage.reducer = std::move(factory);
  stage.partitioner = std::move(partitioner);
  stage.side = std::move(hints.side);
  stage.task_factory = std::move(hints.task_factory);
  stage.task_payload = std::move(hints.task_payload);
  stage.reduce_task_payload = std::move(hints.reduce_task_payload);
  stages_.push_back(std::move(stage));
  return *this;
}

Plan& Plan::UnionWith(std::string stage_name,
                      std::shared_ptr<const mr::Dataset> dataset) {
  Stage stage;
  stage.kind = Stage::Kind::kUnion;
  stage.name = std::move(stage_name);
  stage.dataset = std::move(dataset);
  stages_.push_back(std::move(stage));
  return *this;
}

Status Plan::Validate() const {
  for (const Stage& stage : stages_) {
    switch (stage.kind) {
      case Stage::Kind::kFlatMap:
        if (!stage.mapper) {
          return Status::InvalidArgument("plan '" + name_ + "': FlatMap '" +
                                         stage.name + "' has no mapper");
        }
        break;
      case Stage::Kind::kGroupByKey:
        if (!stage.reducer) {
          return Status::InvalidArgument("plan '" + name_ + "': GroupByKey '" +
                                         stage.name + "' has no reducer");
        }
        break;
      case Stage::Kind::kUnion:
        if (stage.dataset == nullptr) {
          return Status::InvalidArgument("plan '" + name_ + "': Union '" +
                                         stage.name + "' has no dataset");
        }
        break;
    }
  }
  return Status::OK();
}

size_t Plan::NumWideStages() const {
  size_t n = 0;
  for (const Stage& stage : stages_) {
    if (stage.kind == Stage::Kind::kGroupByKey) ++n;
  }
  return n;
}

}  // namespace fsjoin::exec
